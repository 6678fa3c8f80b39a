import numpy as np
import pytest
import scipy.stats

from hlcast.errors import DataError, InsufficientDataError, SchemaError, SingularDesignError
from hlcast.regress import (
    DesignMatrix,
    EcmFit,
    FitResult,
    design_matrix,
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
        d = DesignMatrix.from_arrays(
            y=np.array([3.0, 5.0, 7.0]), x=np.array([1.0, 2.0, 3.0]), names=["x"]
        )
        fit = ols_fit(d)
        assert fit.coefficients["intercept"] == pytest.approx(1.0, abs=1e-10)
        assert fit.coefficients["x"] == pytest.approx(2.0, abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert all(abs(v) < 1e-9 for v in fit.residuals.values)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            y, x = random_system(rng)
            fit = ols_fit(DesignMatrix.from_arrays(y, x[:, 1:]))
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
        fit = ols_fit(DesignMatrix.from_arrays(y, x, names=["x"]))
        ref = scipy.stats.linregress(x, y)
        assert fit.coefficients["x"] == pytest.approx(ref.slope, rel=1e-12)
        assert fit.coefficients["intercept"] == pytest.approx(ref.intercept, rel=1e-12)
        assert fit.stderrs["x"] == pytest.approx(ref.stderr, rel=1e-10)
        assert fit.r_squared == pytest.approx(ref.rvalue**2, rel=1e-12)

    def test_orthogonality_and_residual_sum(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            y, x = random_system(rng)
            fit = ols_fit(DesignMatrix.from_arrays(y, x[:, 1:]))
            resid = np.array([v for v in fit.residuals.values if v is not None])
            scale = float(np.abs(y).max())
            assert np.abs(x.T @ resid).max() < 1e-8 * scale * len(y)
            assert abs(resid.sum()) < 1e-8 * scale

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(13)
        y, x = random_system(rng, n=40, p=4)
        base = ols_fit(DesignMatrix.from_arrays(y, x[:, 1:]))
        factors = np.array([10.0, 1e-4, 250.0])
        scaled = ols_fit(DesignMatrix.from_arrays(y, x[:, 1:] * factors))
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
            ols_fit(DesignMatrix.from_arrays(rng.normal(size=30), x, names=["a", "twice_a", "b"]))
        assert set(exc.value.columns) & {"a", "twice_a"}
        assert "b" not in exc.value.columns

    def test_three_way_dependency_names_every_member(self):
        rng = np.random.default_rng(9)
        a, b, c = rng.normal(size=(3, 30))
        x = np.column_stack([a, b, a + b, c])
        with pytest.raises(SingularDesignError) as exc:
            ols_fit(
                DesignMatrix.from_arrays(
                    rng.normal(size=30), x, names=["a", "b", "a_plus_b", "c"]
                )
            )
        assert sorted(exc.value.columns) == ["a", "a_plus_b", "b"]
        assert "a, a_plus_b, b" in str(exc.value)

    def test_all_zero_column(self):
        with pytest.raises(SingularDesignError, match="dead"):
            ols_fit(
                DesignMatrix.from_arrays(
                    np.arange(5.0), np.zeros((5, 1)), names=["dead"]
                )
            )

    def test_too_few_observations(self):
        with pytest.raises(InsufficientDataError):
            ols_fit(DesignMatrix.from_arrays(np.arange(3.0), np.eye(3), names=list("abc")))

    def test_constant_response_r2_zero_with_warning(self):
        rng = np.random.default_rng(1)
        with pytest.warns(UserWarning, match="constant"):
            fit = ols_fit(
                DesignMatrix.from_arrays(np.full(10, 7.0), rng.normal(size=(10, 1)))
            )
        assert fit.r_squared == 0.0

    def test_adj_below_r2(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            y, x = random_system(rng)
            fit = ols_fit(DesignMatrix.from_arrays(y, x[:, 1:]))
            assert fit.adj_r_squared <= fit.r_squared + 1e-15

    def test_to_dict_shape(self):
        rng = np.random.default_rng(2)
        y, x = random_system(rng, n=20, p=3)
        doc = ols_fit(DesignMatrix.from_arrays(y, x[:, 1:])).to_dict()
        assert set(doc) == {"coefficients", "r2", "adj_r2", "resid_se", "f_stat", "n"}
        for entry in doc["coefficients"].values():
            assert set(entry) == {"estimate", "stderr"}


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
        assert d.row_index == [START + 1, START + 3, START + 4, START + 5]

    def test_training_window(self):
        f = align([series([float(i) for i in range(8)], name="y"),
                   series([float(i) for i in range(8)], name="x")])
        d = design_matrix(f, "y", ["x"], last=START + 3)
        assert d.row_index[-1] == START + 3 and len(d.row_index) == 4

    def test_predict_reproduces_fitted(self):
        rng = np.random.default_rng(7)
        x_vals = rng.normal(size=30)
        y_vals = 1.0 + 2.0 * x_vals + rng.normal(size=30) * 0.1
        f = align([series(list(y_vals), name="y"), series(list(x_vals), name="x")])
        fit = ols_fit(design_matrix(f, "y", ["x"]))
        pred = predict(fit, f)
        for q, v in fit.fitted.items():
            if v is not None:
                assert pred.get(q) == pytest.approx(v, rel=1e-12)

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


def fit_simulated(x, y):
    xs = series(list(x), name="x")
    ys = series(list(y), name="y")
    short_run = align([xs.diff().rename("d_x")])
    levels = align([xs.lag(1).rename("x_lag1")])
    return ys, xs, ecm_fit(ys, short_run, levels)


class TestEcm:
    def test_noiseless_identification(self):
        x, y = simulate_ecm()
        _, _, fit = fit_simulated(x, y)
        assert fit.gamma == pytest.approx(-0.3, abs=1e-8)
        assert fit.long_run_alphas["x_lag1"] == pytest.approx(1.0, abs=1e-8)
        assert fit.short_run["d_x"] == pytest.approx(0.8, abs=1e-8)
        assert fit.intercept == pytest.approx(0.5, abs=1e-8)

    def test_reparametrization_identity(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            n = int(rng.integers(30, 80))
            y = np.cumsum(rng.normal(size=n)) + 50.0
            x1 = np.cumsum(rng.normal(size=n)) + 20.0
            x2 = rng.normal(size=n) * 3.0
            ys = series(list(y), name="y")
            x1s, x2s = series(list(x1), name="x1"), series(list(x2), name="x2")
            fit = ecm_fit(
                ys,
                align([x1s.diff().rename("d_x1")]),
                align([x1s.lag(1).rename("x1_lag1"), x2s.lag(1).rename("x2_lag1")]),
            )
            # Restricted form: b0 + b*d_x1 + gamma*(y[t-1] - sum(alpha * level)).
            fitted = fit.underlying.fitted
            scale = max(abs(v) for v in fitted.values if v is not None)
            for q, want in fitted.items():
                if want is None:
                    continue
                restricted = (
                    fit.intercept
                    + fit.short_run["d_x1"] * x1s.diff().get(q)
                    + fit.gamma
                    * (
                        ys.lag(1).get(q)
                        - fit.long_run_alphas["x1_lag1"] * x1s.lag(1).get(q)
                        - fit.long_run_alphas["x2_lag1"] * x2s.lag(1).get(q)
                    )
                )
                assert abs(restricted - want) <= 1e-10 * scale

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
        x, y = simulate_ecm(noise=0.2, seed=8)
        ys, xs, fit = fit_simulated(x, y)
        frame = align([ys, xs.diff().rename("d_x"), xs.lag(1).rename("x_lag1")])
        start = START + 100
        static = ecm_forecast(fit, frame, start, mode="static")
        dynamic = ecm_forecast(fit, frame, start, mode="dynamic")
        assert static.values[0] == pytest.approx(dynamic.values[0], rel=1e-14)

    def test_dynamic_forecast_tracks_noiseless_path(self):
        x, y = simulate_ecm(n=140)
        train_ys = series(list(y[:120]), name="y")
        xs = series(list(x), name="x")
        fit = ecm_fit(
            train_ys,
            align([xs.diff().rename("d_x")]),
            align([xs.lag(1).rename("x_lag1")]),
        )
        frame = align(
            [series(list(y), name="y"), xs.diff().rename("d_x"), xs.lag(1).rename("x_lag1")]
        )
        start = START + 120
        forecast = ecm_forecast(fit, frame, start, mode="dynamic")
        for i in range(20):
            assert forecast.get(start + i) == pytest.approx(y[120 + i], abs=1e-6)

    def test_zero_coefficients_give_flat_forecast(self):
        names = ["intercept", "d_x", "y_lag1", "x_lag1"]
        underlying = FitResult(
            coefficients={n: 0.0 for n in names},
            stderrs={n: 0.0 for n in names},
            r_squared=0.0,
            adj_r_squared=0.0,
            residual_stderr=0.0,
            f_statistic=0.0,
            n_obs=10,
            df_residual=6,
            fitted=series([0.0], name="d_y_fitted"),
            residuals=series([0.0], name="d_y_resid"),
            response_name="d_y",
            intercept=True,
        )
        fit = EcmFit(
            underlying=underlying,
            response_name="y",
            short_run={"d_x": 0.0},
            gamma=0.0,
            long_run_alphas={"x_lag1": 0.0},
            short_run_columns=["d_x"],
            level_columns=["x_lag1"],
        )
        frame = align(
            [
                series([5.0] + [None] * 9, name="y"),
                series([1.0] * 10, name="d_x"),
                series([2.0] * 10, name="x_lag1"),
            ]
        )
        out = ecm_forecast(fit, frame, START + 1, mode="dynamic")
        assert all(v == 5.0 for v in out.values)

    def test_missing_initial_level(self):
        x, y = simulate_ecm(n=60)
        ys, xs, fit = fit_simulated(x, y)
        frame = align([ys, xs.diff().rename("d_x"), xs.lag(1).rename("x_lag1")])
        with pytest.raises(DataError, match="anchor"):
            ecm_forecast(fit, frame, frame.start, mode="dynamic")

    def test_bad_mode(self):
        x, y = simulate_ecm(n=60)
        ys, xs, fit = fit_simulated(x, y)
        frame = align([ys, xs.diff().rename("d_x"), xs.lag(1).rename("x_lag1")])
        with pytest.raises(ValueError):
            ecm_forecast(fit, frame, START + 10, mode="oracle")

    def test_dynamic_ignores_observed_levels(self):
        # Corrupting post-start observations must not change a dynamic
        # forecast, but must change a static one.
        x, y = simulate_ecm(n=100, noise=0.3, seed=21)
        ys, xs, fit = fit_simulated(x, y)
        start = START + 80
        corrupted = list(y)
        for i in range(81, 100):
            corrupted[i] += 500.0
        frame_ok = align([ys, xs.diff().rename("d_x"), xs.lag(1).rename("x_lag1")])
        frame_bad = align(
            [series(corrupted, name="y"), xs.diff().rename("d_x"), xs.lag(1).rename("x_lag1")]
        )
        dyn_ok = ecm_forecast(fit, frame_ok, start, mode="dynamic")
        dyn_bad = ecm_forecast(fit, frame_bad, start, mode="dynamic")
        assert dyn_ok.values == dyn_bad.values
        static_ok = ecm_forecast(fit, frame_ok, start, mode="static")
        static_bad = ecm_forecast(fit, frame_bad, start, mode="static")
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
                (resp.get(q), shifted.get(q))
                for q in resp.quarters()
                if resp.get(q) is not None and shifted.get(q) is not None
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

    def test_empty_and_negative_ranges(self):
        resp = series([1.0, 2.0], name="resp")
        with pytest.raises(ValueError):
            lag_scan(resp, resp.rename("cand"), [])
        with pytest.raises(ValueError):
            lag_scan(resp, resp.rename("cand"), [-1, 0])
