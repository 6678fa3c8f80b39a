import math
import warnings

import numpy as np
import pytest
import scipy.stats
from conftest import design_from_arrays, fitted_by_quarter, residuals, value_at
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hlcast.errors import (
    DataError,
    InsufficientDataError,
    NumericalError,
    SchemaError,
    SingularDesignError,
)
from hlcast.regress import (
    NULL_LOADING_TOL,
    RANK_RTOL,
    DesignMatrix,
    EcmFit,
    FitResult,
    LagScanEntry,
    Term,
    design_matrix,
    ecm_design,
    ecm_fit,
    ecm_forecast,
    lag_scan,
    ols_fit,
    predict,
)
from hlcast.timeseries import Quarter, QuarterlySeries, align

START = Quarter(2000, 1)


def series(values, start=START, name="s"):
    return QuarterlySeries(name=name, start=start, values=tuple(values))


def normal_equations_fit(y, x):
    """Brute-force oracle: solve (X'X) b = X'y and the classical statistics
    straight from their definitions. Only for well-conditioned test systems."""
    y = np.asarray(y, float)
    x = np.asarray(x, float)
    n, p = x.shape
    xtx = x.T @ x
    beta = np.linalg.solve(xtx, x.T @ y)
    resid = y - x @ beta
    ssr = float(resid @ resid)
    sigma2 = ssr / (n - p)
    stderr = np.sqrt(np.diag(sigma2 * np.linalg.inv(xtx)))
    sst = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - ssr / sst
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - p)
    f = ((sst - ssr) / (p - 1)) / (ssr / (n - p))
    return beta, stderr, r2, adj, np.sqrt(sigma2), f


def random_system(rng, n=None, p=None):
    """Well-conditioned system with mildly mixed column scales; the
    normal-equations oracle stays accurate in this regime."""
    n = n or int(rng.integers(12, 51))
    p = p or int(rng.integers(2, 7))
    scales = 10.0 ** rng.uniform(-1.0, 2.0, size=p - 1)
    x = np.column_stack([np.ones(n)] + [rng.normal(size=n) * s for s in scales])
    beta = rng.normal(size=p)
    y = x @ beta + rng.normal(size=n)
    return y, x


class TestOlsFit:
    def test_exact_line(self):
        d = design_from_arrays(
            y=np.array([3.0, 5.0, 7.0]), x=np.array([1.0, 2.0, 3.0]), names=["x"]
        )
        fit = ols_fit(d)
        assert fit.coefficients["intercept"] == pytest.approx(1.0, abs=1e-10)
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert all(abs(v) < 1e-9 for v in residuals(fit))

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            y, x = random_system(rng)
            fit = ols_fit(design_from_arrays(y, x[:, 1:]))
            beta, stderr, r2, adj, rse, f = normal_equations_fit(y, x)
            got = np.array(list(fit.coefficients.values()))
            got_se = np.array(list(fit.stderrs.values()))
            np.testing.assert_allclose(got, beta, rtol=1e-8)
            np.testing.assert_allclose(got_se, stderr, rtol=1e-8)
            assert fit.r_squared == pytest.approx(r2, rel=1e-8)
            assert fit.adj_r_squared == pytest.approx(adj, rel=1e-8)
            assert fit.residual_stderr == pytest.approx(rse, rel=1e-8)
            assert fit.f_statistic == pytest.approx(f, rel=1e-8)

    def test_univariate_matches_scipy_linregress(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=40)
        y = 2.0 + 0.5 * x + rng.normal(size=40) * 0.3
        fit = ols_fit(design_from_arrays(y, x, names=["x"]))
        ref = scipy.stats.linregress(x, y)
        assert fit.coefficients["x"] == pytest.approx(ref.slope, rel=1e-12)
        assert fit.coefficients["intercept"] == pytest.approx(ref.intercept, rel=1e-12)
        assert fit.stderrs["x"] == pytest.approx(ref.stderr, rel=1e-10)
        assert fit.r_squared == pytest.approx(ref.rvalue**2, rel=1e-12)

    def test_orthogonality_and_residual_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            y, x = random_system(rng)
            fit = ols_fit(design_from_arrays(y, x[:, 1:]))
            resid = residuals(fit)
            scale = float(np.abs(y).max())
            assert np.abs(x.T @ resid).max() < 1e-8 * scale * len(y)
            assert abs(resid.sum()) < 1e-8 * scale

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(13)
        y, x = random_system(rng, n=40, p=4)
        base = ols_fit(design_from_arrays(y, x[:, 1:]))
        factors = np.array([10.0, 1e-4, 250.0])
        scaled = ols_fit(design_from_arrays(y, x[:, 1:] * factors))
        names = [n for n in base.coefficients if n != "intercept"]
        for name, k in zip(names, factors):
            assert scaled.coefficients[name] * k == pytest.approx(
                base.coefficients[name] * 1.0, rel=1e-8
            )
        assert scaled.r_squared == pytest.approx(base.r_squared, rel=1e-10)

    def test_collinear_columns_named(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=30)
        x = np.column_stack([a, 2.0 * a, rng.normal(size=30)])
        with pytest.raises(SingularDesignError) as exc:
            ols_fit(design_from_arrays(rng.normal(size=30), x, names=["a", "twice_a", "b"]))
        assert set(exc.value.columns) & {"a", "twice_a"}
        assert "b" not in exc.value.columns

    def test_three_way_dependency_names_every_member(self):
        rng = np.random.default_rng(9)
        a, b, c = rng.normal(size=(3, 30))
        x = np.column_stack([a, b, a + b, c])
        with pytest.raises(SingularDesignError) as exc:
            ols_fit(
                design_from_arrays(
                    rng.normal(size=30), x, names=["a", "b", "a_plus_b", "c"]
                )
            )
        assert sorted(exc.value.columns) == ["a", "a_plus_b", "b"]
        assert "a, a_plus_b, b" in str(exc.value)

    def test_all_zero_column(self):
        with pytest.raises(SingularDesignError, match="dead"):
            ols_fit(
                design_from_arrays(
                    np.arange(5.0), np.zeros((5, 1)), names=["dead"]
                )
            )

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            ols_fit(design_from_arrays(np.arange(3.0), np.eye(3), names=list("abc")))

    def test_constant_response_r2_zero_with_warning(self):
        rng = np.random.default_rng(1)
        with pytest.warns(UserWarning, match="constant"):
            fit = ols_fit(
                design_from_arrays(np.full(10, 7.0), rng.normal(size=(10, 1)))
            )
        assert fit.r_squared == 0.0

    def test_intercept_only_f_is_zero(self):
        # F compares the fit with the intercept-only model: itself
        fit = ols_fit(design_from_arrays(np.array([1.0, 4.0, 2.0, 3.0]), np.empty((4, 0))))
        assert fit.f_statistic == 0.0
        assert fit.r_squared == pytest.approx(0.0, abs=1e-15)

    def test_adj_below_r2(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            y, x = random_system(rng)
            fit = ols_fit(design_from_arrays(y, x[:, 1:]))
            assert fit.adj_r_squared <= fit.r_squared + 1e-15


def svd_rule(d):
    """``RANK_RTOL`` applied to ``np.linalg.svd`` of the equilibrated design.

    Returns the rank, the smallest-to-largest singular-value ratio and the
    sorted names of the columns loading on the null space.
    """
    xs = d.matrix / np.sqrt((d.matrix**2).sum(axis=0))
    _, s, vt = np.linalg.svd(xs, full_matrices=False)
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    loaded = np.abs(vt[rank:]).max(axis=0, initial=0.0) > NULL_LOADING_TOL
    return rank, s[-1] / s[0], sorted(d.names[j] for j in np.flatnonzero(loaded))


def rank_verdict(d):
    """``ols_fit``'s verdict: None for a fit, else the collinear columns it names."""
    try:
        ols_fit(d)
    except SingularDesignError as exc:
        return sorted(exc.columns)
    return None


class TestRankCheck:
    """The cheap norm bound must give the same verdict as the singular values."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 40),
        k=st.integers(2, 4),
        exponent=st.floats(-12.0, -6.0),
        toward_intercept=st.booleans(),
    )
    def test_blended_column_matches_svd_rule(self, seed, n, k, exponent, toward_intercept):
        # the last column is blended toward the intercept or another column,
        # so the singular-value ratio falls anywhere from ~1e-12 to ~1e-6
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, k)) * 10.0 ** rng.uniform(-2.0, 5.0, size=k)
        target = np.ones(n) if toward_intercept else x[:, 0]
        x[:, -1] = target + 10.0**exponent * rng.normal(size=n) * np.abs(target).max()
        d = design_from_arrays(rng.normal(size=n), x)
        rank, ratio, collinear = svd_rule(d)
        # on the threshold itself the last rounding bit of a singular value decides
        assume(abs(ratio / RANK_RTOL - 1.0) > 1e-3)
        assert rank_verdict(d) == (None if rank == d.matrix.shape[1] else collinear)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 40),
        k=st.integers(2, 4),
        factor=st.sampled_from([1.0, -1.0, 2.0, 0.5, 1024.0, 3.0, 0.1]),
    )
    def test_exact_duplicate_matches_svd_rule(self, seed, n, k, factor):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, k))
        x[:, -1] = factor * x[:, 0]
        d = design_from_arrays(rng.normal(size=n), x)
        rank, _, collinear = svd_rule(d)
        assert rank < d.matrix.shape[1]
        assert rank_verdict(d) == collinear
        assert {"x0", f"x{k - 1}"} <= set(collinear)

    # at n = 9 the QR leaves an exact zero on R's diagonal and the solve fails
    @pytest.mark.parametrize("n", [9, 10])
    def test_duplicate_of_intercept_matches_svd_rule(self, n):
        x = np.column_stack([np.arange(float(n)), np.ones(n)])
        d = design_from_arrays(np.arange(float(n)) ** 2, x)
        assert rank_verdict(d) == svd_rule(d)[2] == ["intercept", "x1"]


class TestOverflow:
    def test_overflowing_column_named(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 2))
        x[5, 1] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="squares of column.*big overflow"):
                ols_fit(design_from_arrays(rng.normal(size=20), x, names=["a", "big"]))

    def test_overflowing_response_named(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=20)
        y[5] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="squares of response 'y' overflow"):
                ols_fit(design_from_arrays(y, rng.normal(size=(20, 2))))

    def test_largest_finite_squares_still_fit(self):
        # 1e150 squared is 1e300: large, but no overflow
        rng = np.random.default_rng(4)
        x = rng.normal(size=(20, 1)) * 1e150
        fit = ols_fit(design_from_arrays(rng.normal(size=20) * 1e150, x))
        assert math.isfinite(fit.r_squared)


class TestDesignAndPredict:
    def test_listwise_deletion_and_lag_naming(self):
        f = align(
            [
                series([1.0, 2.0, 3.0, 4.0, 5.0, 6.0], name="y"),
                series([1.0, None, 3.0, 4.0, 5.0, 6.0], name="x"),
            ]
        )
        d = design_matrix(f, "y", [("x", 1)])
        assert d.names == ["intercept", "x_lag1"]
        # usable rows: x[t-1] present -> t in {2001Q2 missing (x 2000Q2 is None)}
        assert d.rows.tolist() == [START.index + k for k in (1, 3, 4, 5)]

    def test_training_window(self):
        f = align([series([float(i) for i in range(8)], name="y"),
                   series([float(i) for i in range(8)], name="x")])
        d = design_matrix(f, "y", ["x"]).until(START.index + 3)
        assert d.rows[-1] == START.index + 3 and len(d.rows) == 4

    def test_predict_reproduces_fitted(self):
        rng = np.random.default_rng(7)
        x_vals = rng.normal(size=30)
        y_vals = 1.0 + 2.0 * x_vals + rng.normal(size=30) * 0.1
        f = align([series(list(y_vals), name="y"), series(list(x_vals), name="x")])
        fit = ols_fit(design_matrix(f, "y", ["x"]))
        pred = predict(fit, f)
        for q, v in fitted_by_quarter(fit).items():
            assert value_at(pred, q) == pytest.approx(v, rel=1e-12)

    def test_predict_missing_propagates(self):
        f = align([series([1.0, 2.0, 3.0], name="y"), series([1.0, None, 3.0], name="x")])
        fit = ols_fit(
            design_matrix(
                align([series([1.0, 2.0, 3.0, 4.0], name="y"),
                       series([1.0, 2.0, 3.0, 4.0], name="x")]),
                "y",
                ["x"],
            )
        )
        pred = predict(fit, f)
        assert pred.values[1] is None
        assert pred.values[0] is not None

    @pytest.mark.parametrize(
        "regressors,error,message",
        [
            ([("x", -1)], ValueError, "regressor lag must be >= 0, got -1 for 'x'"),
            ([("x", 0), ("x", 0)], SchemaError, "duplicate regressor names"),
        ],
        ids=["negative-lag", "duplicate"],
    )
    def test_bad_regressors_rejected(self, regressors, error, message):
        f = align([series([1.0, 2.0, 3.0, 4.0], name="y"), series([4.0, 1.0, 3.0, 2.0], name="x")])
        with pytest.raises(error, match=message):
            design_matrix(f, "y", regressors)

    def test_response_shorter_than_matrix_rejected(self):
        with pytest.raises(ValueError, match="dimensions are inconsistent"):
            DesignMatrix(np.zeros(2), np.ones((3, 1)), np.arange(3), "y", ())

    def test_predict_requires_columns(self):
        f = align([series([1.0, 2.0, 3.0, 4.0], name="y"),
                   series([1.0, 2.0, 3.0, 4.0], name="x")])
        fit = ols_fit(design_matrix(f, "y", ["x"]))
        with pytest.raises(SchemaError, match="x"):
            predict(fit, align([series([1.0], name="y")]))


def simulate_ecm(n=140, gamma=-0.3, alpha=1.0, beta0=0.5, beta1=0.8, noise=0.0, seed=0):
    """Generate data from a known error correction process."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    x = 50.0 + 0.7 * t + 6.0 * np.sin(t / 5.0)
    y = np.empty(n)
    y[0] = 60.0
    for i in range(1, n):
        dy = (
            beta0
            + beta1 * (x[i] - x[i - 1])
            + gamma * (y[i - 1] - alpha * x[i - 1])
            + noise * rng.normal()
        )
        y[i] = y[i - 1] + dy
    return x, y


def ecm_frame(ys, *xs):
    """The response and regressors, each with its first difference ``d_<name>``."""
    return align([ys, *xs] + [s.diff().rename(f"d_{s.name}") for s in (ys, *xs)])


def fit_simulated(x, y):
    xs = series(list(x), name="x")
    ys = series(list(y), name="y")
    return ys, xs, ecm_fit(ecm_design(ecm_frame(ys, xs), "y", ["d_x"], [("x", 1)]))


class TestEcm:
    def test_noiseless_identification(self):
        x, y = simulate_ecm()
        _, _, fit = fit_simulated(x, y)
        assert fit.gamma == pytest.approx(-0.3, abs=1e-8)
        assert fit.long_run_alphas["x_lag1"] == pytest.approx(1.0, abs=1e-8)
        assert fit.underlying.coefficients["d_x"] == pytest.approx(0.8, abs=1e-8)
        assert fit.intercept == pytest.approx(0.5, abs=1e-8)

    def test_level_is_the_lagged_response_term(self):
        # the short-run terms come first, so the level's position moves with them
        ys, xs = series([1.0, 3.0, 2.0] * 10, name="y"), series([2.0, 1.0, 5.0, 4.0] * 8, name="x")
        frame = ecm_frame(ys, xs)
        for short_run in ([], ["d_x"], ["d_x", ("d_x", 1)]):
            fit = ecm_fit(ecm_design(frame, "y", short_run, [("x", 1)]))
            assert fit.level == len(short_run)
            assert fit.underlying.design.terms[fit.level] == Term("y_lag1", "y", 1)
        assert EcmFit.__slots__ == ("underlying", "level", "gamma", "long_run_alphas")

    def test_reparametrization_identity(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(30, 80))
            y = np.cumsum(rng.normal(size=n)) + 50.0
            x1 = np.cumsum(rng.normal(size=n)) + 20.0
            x2 = rng.normal(size=n) * 3.0
            ys = series(list(y), name="y")
            x1s, x2s = series(list(x1), name="x1"), series(list(x2), name="x2")
            design = ecm_design(ecm_frame(ys, x1s, x2s), "y", ["d_x1"], [("x1", 1), ("x2", 1)])
            fit = ecm_fit(design)
            # Restricted form: b0 + b*d_x1 + gamma*(y[t-1] - sum(alpha * level)).
            fitted = fitted_by_quarter(fit.underlying)
            scale = max(abs(v) for v in fitted.values())
            for q, want in fitted.items():
                restricted = (
                    fit.intercept
                    + fit.underlying.coefficients["d_x1"] * value_at(x1s.diff(), q)
                    + fit.gamma
                    * (
                        value_at(ys.lag(1), q)
                        - fit.long_run_alphas["x1_lag1"] * value_at(x1s.lag(1), q)
                        - fit.long_run_alphas["x2_lag1"] * value_at(x2s.lag(1), q)
                    )
                )
                assert abs(restricted - want) <= 1e-10 * scale

    def test_non_ecm_design_rejected(self):
        x, y = simulate_ecm(n=40)
        frame = ecm_frame(series(list(y), name="y"), series(list(x), name="x"))
        for design in (design_matrix(frame, "y", [("y", 1), "x"]),
                       design_matrix(frame, "d_y", ["d_x", ("x", 1)])):
            with pytest.raises(SchemaError, match="not an error correction design"):
                ecm_fit(design)

    def test_positive_gamma_warns(self):
        # A positive adjustment coefficient (explosive response) must warn.
        x, y = simulate_ecm(n=80, gamma=0.05, alpha=-2.0)
        with pytest.warns(UserWarning, match="error correction"):
            _, _, fit = fit_simulated(x, y)
        assert fit.gamma == pytest.approx(0.05, abs=1e-8)

    def test_table_style_alpha_recovery(self):
        # alpha must equal -(level coefficient)/gamma for whatever estimates
        # come out of a noisy fit.
        x, y = simulate_ecm(noise=0.4, seed=3)
        _, _, fit = fit_simulated(x, y)
        theta = fit.underlying.coefficients["x_lag1"]
        assert fit.long_run_alphas["x_lag1"] == pytest.approx(-theta / fit.gamma, rel=1e-14)

    def test_forecast_one_step_modes_agree(self):
        # the modes differ only after the origin, and not in its first step
        x, y = simulate_ecm(noise=0.2, seed=8)
        ys, xs, fit = fit_simulated(x, y)
        frame = ecm_frame(ys, xs)
        origin = START.index + 99
        static = ecm_forecast(fit, frame)
        dynamic = ecm_forecast(fit, frame, origin)
        assert static.start_index == dynamic.start_index == int(fit.underlying.design.rows[0])
        # the origin-free path runs from the first fitted quarter to the frame's end
        last = frame.start_index + len(frame) - 1
        assert len(static) == last + 1 - static.start_index
        m = origin + 2 - static.start_index  # through the first quarter after the origin
        assert np.array_equal(static.array[:m], dynamic.array[:m])
        assert not np.array_equal(static.array[m:], dynamic.array[m:])

    def test_dynamic_forecast_tracks_noiseless_path(self):
        x, y = simulate_ecm(n=140)
        train_ys = series(list(y[:120]), name="y")
        xs = series(list(x), name="x")
        fit = ecm_fit(ecm_design(ecm_frame(train_ys, xs), "y", ["d_x"], [("x", 1)]))
        frame = ecm_frame(series(list(y), name="y"), xs)
        origin = START.index + 119
        forecast = ecm_forecast(fit, frame, origin)
        for i in range(20):
            assert value_at(forecast, origin + 1 + i) == pytest.approx(y[120 + i], abs=1e-6)

    def test_forecast_without_an_anchor_level_is_data_error(self):
        # a fit on data from 0000Q1, the first quarter a label can name: its
        # path starts at 0000Q2, and no quarter precedes 0000Q1
        x, y = simulate_ecm(n=40)
        ys, xs = (s._with_array(s.array, 0) for s in (series(y, name="y"), series(x, name="x")))
        frame = ecm_frame(ys, xs)
        fit = ecm_fit(ecm_design(frame, "y", ["d_x"], [("x", 1)]))
        with pytest.raises(DataError, match="no observed 'y' level at 0000Q1 can anchor a path"):
            ecm_forecast(fit, align(s._with_array(s.array[1:], 1) for s in frame.columns.values()))
        # a quarter number with no label is named by its number
        with pytest.raises(
            DataError, match="no observed 'y' level at quarter number -1 can anchor a path from 0000Q2"
        ):
            ecm_forecast(fit, frame, -1)

    def test_zero_coefficients_give_flat_forecast(self):
        names = ["intercept", "d_x", "y_lag1", "x_lag1"]
        underlying = FitResult(
            coefficients={n: 0.0 for n in names},
            stderrs={n: 0.0 for n in names},
            r_squared=0.0,
            adj_r_squared=0.0,
            residual_stderr=0.0,
            f_statistic=0.0,
            design=DesignMatrix(
                response=np.array([0.0]),
                matrix=np.zeros((1, len(names))),
                rows=np.array([START.index + 1]),
                response_name="d_y",
                terms=(Term("d_x", "d_x"), Term("y_lag1", "y", 1), Term("x_lag1", "x", 1)),
            ),
        )
        fit = EcmFit(
            underlying=underlying,
            level=1,
            gamma=0.0,
            long_run_alphas={"x_lag1": 0.0},
        )
        frame = align(
            [
                series([5.0] + [None] * 9, name="y"),
                series([1.0] * 10, name="d_x"),
                series([2.0] * 10, name="x"),
            ]
        )
        out = ecm_forecast(fit, frame, START.index)
        assert all(v == 5.0 for v in out.values)

    def test_missing_initial_level(self):
        x, y = simulate_ecm(n=60)
        ys, xs, fit = fit_simulated(x, y)
        frame = ecm_frame(ys, xs)
        with pytest.raises(DataError, match="anchor"):
            ecm_forecast(fit, frame, frame.start_index - 1)
        # an origin whose level is missing
        gap = ys.to_array()
        gap[30] = np.nan
        with pytest.raises(DataError, match=r"level at 2007Q3 can anchor"):
            ecm_forecast(fit, ecm_frame(ys._with_array(gap), xs), START.index + 30)

    def test_dynamic_ignores_observed_levels(self):
        # Corrupting observations after the origin must not change a dynamic
        # path, but must change a static one.
        x, y = simulate_ecm(n=100, noise=0.3, seed=21)
        ys, xs, fit = fit_simulated(x, y)
        origin = START.index + 80
        corrupted = list(y)
        for i in range(81, 100):
            corrupted[i] += 500.0
        frame_ok = ecm_frame(ys, xs)
        frame_bad = ecm_frame(series(corrupted, name="y"), xs)
        dyn_ok = ecm_forecast(fit, frame_ok, origin)
        dyn_bad = ecm_forecast(fit, frame_bad, origin)
        assert dyn_ok.values == dyn_bad.values
        static_ok = ecm_forecast(fit, frame_ok)
        static_bad = ecm_forecast(fit, frame_bad)
        assert static_ok.values != static_bad.values


class TestLagScan:
    def test_recovers_constructed_lead(self):
        rng = np.random.default_rng(4)
        base = np.cumsum(rng.normal(size=60)) + 10.0
        resp = series(list(base), name="resp")
        cand = series(list(base[6:]), name="cand")  # candidate leads by 6
        result = lag_scan(resp, cand, range(0, 9))
        assert result.best_lag == 6
        by_lag = {e.lag: e.r_squared for e in result.entries}
        assert by_lag[6] == pytest.approx(1.0, abs=1e-12)

    def test_noise_scores_low(self):
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            resp = series(list(rng.normal(size=80)), name="resp")
            cand = series(list(rng.normal(size=80)), name="cand")
            result = lag_scan(resp, cand, range(0, 7))
            for e in result.entries:
                assert e.r_squared is not None and e.r_squared < 0.2

    def test_r2_equals_squared_pearson(self):
        rng = np.random.default_rng(6)
        resp_vals = rng.normal(size=50)
        cand_vals = 0.6 * resp_vals + rng.normal(size=50)
        resp = series(list(resp_vals), name="resp")
        cand = series(list(cand_vals), name="cand")
        result = lag_scan(resp, cand, [0, 1, 3])
        for e in result.entries:
            shifted = cand.lag(e.lag)
            pairs = [
                (v, w)
                for v, w in zip(resp.values, shifted.values, strict=True)
                if v is not None and w is not None
            ]
            a = np.array([p[0] for p in pairs])
            b = np.array([p[1] for p in pairs])
            corr = np.corrcoef(a, b)[0, 1]
            assert e.r_squared == pytest.approx(corr**2, rel=1e-10)

    def test_unusable_lag_reported_not_fatal(self):
        resp = series([1.0, 2.0, 3.0, 4.0, 5.0], name="resp")
        cand = series([2.0, 4.0, 6.0, 8.0, 10.0], name="cand")
        result = lag_scan(resp, cand, [0, 4])
        by_lag = {e.lag: e for e in result.entries}
        assert by_lag[0].r_squared is not None
        assert by_lag[4].r_squared is None  # one overlapping pair is not a fit
        assert result.best_lag == 0

    def test_lags_past_the_sample_are_unusable_without_array_work(self, monkeypatch):
        # responses and candidates offset by a quarter, with gaps: the aligned
        # sample spans 13 quarters
        resp = series(
            [1.0, None, 3.0, 2.0, 5.0, 4.0, 7.0, None, 9.0, 8.0, 11.0, 10.0], name="resp"
        )
        cand = series(
            [2.0, 1.0, None, 4.0, 3.0, 6.0, 5.0, 8.0, 7.0, None, 9.0, 12.0],
            start=Quarter(2000, 2),
            name="cand",
        )
        n = len(align([resp, cand]))
        assert n == 13
        one_by_one = [lag_scan(resp, cand, [k]).entries[0] for k in range(n)]
        calls = []
        count_nonzero = np.count_nonzero
        monkeypatch.setattr(np, "count_nonzero", lambda a: calls.append(1) or count_nonzero(a))
        entries = lag_scan(resp, cand, range(n + 20)).entries
        assert entries[:n] == one_by_one
        assert [e.n_obs for e in one_by_one][-3:] == [1, 0, 0]
        assert entries[n:] == [LagScanEntry(k, None, 0) for k in range(n, n + 20)]
        assert len(calls) == n  # one per lag inside the sample

    @pytest.mark.parametrize("which", ["resp", "cand"])
    def test_overflowing_sums_named(self, which):
        rng = np.random.default_rng(4)
        values = {"resp": rng.normal(size=30), "cand": rng.normal(size=30)}
        values[which][10] = 1e308
        resp, cand = (series(list(values[n]), name=n) for n in ("resp", "cand"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"squares of .*'{which}' overflow at lag 0"):
                lag_scan(resp, cand, range(0, 4))

    def test_empty_and_negative_ranges(self):
        resp = series([1.0, 2.0], name="resp")
        with pytest.raises(ValueError):
            lag_scan(resp, resp.rename("cand"), [])
        with pytest.raises(ValueError):
            lag_scan(resp, resp.rename("cand"), [-1, 0])
