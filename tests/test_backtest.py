import csv
import json
import math
import re
import warnings

import numpy as np
import pytest
from conftest import value_at
from hypothesis import given, settings
from hypothesis import strategies as st

import hlcast.backtest
import hlcast.regress
from hlcast.backtest import (
    HLC,
    HLC_INCOME_RATIO,
    HOUSE_PRICE,
    INCOME,
    INTEREST_ONLY_SHARE,
    INTEREST_RATE,
    LTV,
    MODELS,
    BacktestReport,
    ModelSpec,
    SplitSpec,
    VariantResult,
    _score,
    _spec_design,
    build_features,
    default_specs,
    emit_plot_data,
    evaluate,
    run_grid,
)
from hlcast.errors import DataError, SchemaError
from hlcast.lti import LtiParams
from hlcast.regress import DesignMatrix, design_matrix, ols_fit
from hlcast.synthetic import ScenarioConfig, generate
from hlcast.timeseries import Frame, Quarter, QuarterlySeries, align, parse_quarter

START = Quarter(2000, 1)
CUTOFF = Quarter(2008, 2)


def series(values, start=START, name="s", unit=""):
    return QuarterlySeries(name=name, start=start, values=tuple(values), unit=unit)


class TestEvaluate:
    def test_identical_series(self):
        s = series([1.0, 2.0, 3.0])
        m = evaluate(s, s)
        assert m.rmse == 0.0 and m.mae == 0.0 and m.n_evaluated == 3

    def test_hand_computed_residuals(self):
        obs = series([0.0, 0.0])
        pred = series([3.0, -4.0])
        m = evaluate(obs, pred)
        assert m.mae == pytest.approx(3.5)
        assert m.rmse == pytest.approx(math.sqrt(12.5))

    def test_single_residual_collapse(self):
        m = evaluate(series([1.0]), series([3.5]))
        assert m.rmse == m.mae == 2.5

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            obs = series([0.0] * n)
            pred = series(list(rng.normal(size=n) * rng.uniform(0.1, 100)))
            m = evaluate(obs, pred)
            assert m.mae <= m.rmse + 1e-12

    def test_scaling_by_k(self):
        rng = np.random.default_rng(1)
        obs = series(list(rng.normal(size=20)))
        pred = series(list(rng.normal(size=20)))
        base = evaluate(obs, pred)
        k = 1000.0
        scaled = evaluate(obs.scale(k), pred.scale(k))
        assert scaled.rmse == pytest.approx(k * base.rmse, rel=1e-12)
        assert scaled.mae == pytest.approx(k * base.mae, rel=1e-12)

    def test_window_restriction(self):
        obs = series([1.0, 1.0, 1.0, 1.0])
        pred = series([2.0, 1.0, 1.0, 5.0])
        m = evaluate(obs, pred, first=START.index + 1)
        assert m.rmse == pytest.approx(math.sqrt(16 / 3)) and m.n_evaluated == 3

    def test_empty_overlap_is_error(self):
        with pytest.raises(DataError):
            evaluate(series([1.0, None]), series([None, 1.0]))

    def test_first_past_every_label_is_data_error(self):
        # quarter number 40000 is 10000Q1, which no Quarter can label
        with pytest.raises(DataError, match="from quarter number 40000 on"):
            evaluate(series([1.0]), series([1.0]), first=4 * 10_000)

    def test_missing_pairs_skipped(self):
        m = evaluate(series([1.0, None, 3.0]), series([1.5, 2.0, None]))
        assert m.n_evaluated == 1


class TestOnePassScoring:
    """One pass gives what ``evaluate`` gives over all quarters and from ``first`` on."""

    @staticmethod
    def evaluated(obs, pred, first):
        """``evaluate`` over all quarters and from ``first`` on; None for no overlap."""
        metrics = []
        for window in (None, first):
            try:
                metrics.append(evaluate(obs, pred, first=window))
            except DataError:
                metrics.append(None)
        return tuple(metrics)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_evaluate(self, seed):
        # gaps in either series, infinite predictions, offset starts and a
        # ``first`` anywhere from before the overlap to past its end
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 17)), int(rng.integers(1, 19))
        obs_values = np.where(rng.random(n) < 0.2, np.nan, rng.normal(size=n) * 1e3)
        inf = rng.choice([np.inf, -np.inf], size=m)
        pred_values = np.where(rng.random(m) < 0.1, inf, rng.normal(size=m) * 1e3)
        pred_values = np.where(rng.random(m) < 0.2, np.nan, pred_values)
        obs = series(obs_values, name="observed")
        shifted = Quarter.from_index(START.index + int(rng.integers(-3, 4)))
        pred = series(pred_values, start=shifted, name="predicted")
        first = START.index + int(rng.integers(-2, n + 3))
        want_all, want_from_first = self.evaluated(obs, pred, first)
        if want_all is None:
            with pytest.raises(DataError, match="no overlapping observations"):
                _score(obs, pred, first)
            return
        assert _score(obs, pred, first) == (want_all, want_from_first)

    def test_sample_edge_cutoff_has_no_holdout(self):
        obs, pred = series([1.0, 2.0, None]), series([1.5, 2.5, 3.5])
        got_all, got_holdout = _score(obs, pred, START.index + 2)
        assert got_all == evaluate(obs, pred) and got_holdout is None
        with pytest.raises(DataError, match="from 2000Q3 on"):
            evaluate(obs, pred, first=START.index + 2)

    def test_infinite_predictions_give_null_metrics(self):
        obs, pred = series([1.0, 2.0, 3.0, 4.0]), series([1.0, math.inf, 3.0, 4.5])
        first = START.index + 2
        got_all, got_holdout = _score(obs, pred, first)
        assert (got_all, got_holdout) == (evaluate(obs, pred), evaluate(obs, pred, first))
        assert got_all.to_dict() == {"rmse": None, "mae": None, "n": 4}
        assert got_holdout.to_dict() == {"rmse": math.sqrt(0.125), "mae": 0.25, "n": 2}


def make_raw(n=60, start=Quarter(1995, 1)):
    rng = np.random.default_rng(12)
    t = np.arange(n)
    income = 12_000.0 + 40.0 * t + rng.normal(size=n)
    rate = 0.07 - 0.0004 * t + 0.0005 * np.sin(t / 3.0)
    ltv = [1.01 if i % 4 == 0 else None for i in range(n)]
    share = np.clip(0.01 * t, 0.0, 0.45)
    price = 100_000.0 + 800.0 * t
    return align(
        [
            series(list(price), start, HOUSE_PRICE, unit="eur"),
            series(list(income), start, INCOME, unit="eur"),
            series(list(rate), start, INTEREST_RATE, unit="fraction"),
            series(ltv, start, LTV, unit="fraction"),
            series(list(share), start, INTEREST_ONLY_SHARE, unit="fraction"),
        ]
    )


class TestBuildFeatures:
    def test_columns_and_transforms(self):
        raw = make_raw()
        feats = build_features(raw, LtiParams())
        assert set(feats.names()) >= {
            HOUSE_PRICE,
            INCOME,
            INTEREST_RATE,
            LTV,
            INTEREST_ONLY_SHARE,
            HLC,
            f"{HLC}_lag6",
            HLC_INCOME_RATIO,
            f"{HLC_INCOME_RATIO}_lag6",
        }
        # income is the trailing-4 mean of the raw series
        def at(column, k):
            return value_at(column, raw.start_index + k)

        expected = sum(at(raw.column(INCOME), 10 - i) for i in range(4)) / 4.0
        assert at(feats.column(INCOME), 10) == pytest.approx(expected, rel=1e-12)
        # loan-to-value gaps are filled from the most recent report
        assert at(feats.column(LTV), 2) == 1.01
        # the ratio column is capacity over (smoothed) income
        assert at(feats.column(HLC_INCOME_RATIO), 10) == pytest.approx(
            at(feats.column(HLC), 10) / at(feats.column(INCOME), 10), rel=1e-12
        )
        # the headline lag is the capacity series shifted six quarters
        assert at(feats.column(f"{HLC}_lag6"), 10) == at(feats.column(HLC), 4)

    def test_interest_only_zero_from(self):
        raw = make_raw()
        cut = raw.start_index + 30
        feats = build_features(raw, LtiParams(), interest_only_zero_from=cut)
        share = feats.column(INTEREST_ONLY_SHARE)
        assert all(v == 0.0 for q, v in share.items() if q.index >= cut)
        assert value_at(share, cut - 1) != 0.0

    def test_share_derived_from_stock_inputs(self):
        raw = make_raw()
        cols = [raw.column(c) for c in raw.names() if c != INTEREST_ONLY_SHARE]
        n, start = len(raw), Quarter.from_index(raw.start_index)
        stock = series(
            [min(0.5, 0.005 * i) for i in range(n)], start,
            "interest_only_stock_share", unit="fraction",
        )
        trans = series([5_000.0] * n, start, "transactions")
        hh = series([100_000.0] * n, start, "households")
        frame = align(cols + [stock, trans, hh])
        feats = build_features(frame, LtiParams())
        share = feats.column(INTEREST_ONLY_SHARE)
        assert value_at(share, raw.start_index) is None  # no prior stock observation
        assert 0.0 <= value_at(share, raw.start_index + 10) <= 1.0

    def test_missing_column_named(self):
        raw = make_raw()
        partial = align([raw.column(n) for n in (HOUSE_PRICE, INCOME, INTEREST_RATE, LTV)])
        with pytest.raises(SchemaError, match=INTEREST_ONLY_SHARE):
            build_features(partial, LtiParams())
        with pytest.raises(SchemaError, match=LTV):
            build_features(
                align([raw.column(n) for n in (HOUSE_PRICE, INCOME, INTEREST_RATE)]), LtiParams()
            )


class TestRunGrid:
    def test_full_grid_runs_clean(self, features):
        report = run_grid(features, default_specs(), SplitSpec())
        assert len(report.variants) == 12
        assert all(v.error is None for v in report.variants)
        keys = {(v.name, v.approach, v.regime) for v in report.variants}
        assert ("hlc", "ols", "truncated") in keys
        assert ("benchmark_hlc", "ecm", "full") in keys

    def test_exact_affine_prices_score_zero(self):
        data = generate(ScenarioConfig(seed=5, noise_scale=0.0))
        feats = build_features(data.frame, data.params)
        with pytest.warns(UserWarning):
            # The capacity ECM is misspecified for a pure lag-6 process, so
            # its adjustment coefficient legitimately drifts to ~0.
            report = run_grid(feats, default_specs(), SplitSpec())
        for regime in ("full", "truncated"):
            v = report.variant("hlc", "ols", regime)
            assert v.error is None
            assert v.metrics_all.rmse < 1e-5
            assert v.metrics_holdout.rmse < 1e-5
        # The ECM's lag structure (diff at 4, level at 5) cannot reproduce an
        # exact lag-6 affine process, but it must still track it closely.
        scale = float(np.nanmean(feats.column(HOUSE_PRICE).to_array()))
        for regime in ("full", "truncated"):
            v = report.variant("hlc", "ecm", regime)
            assert v.error is None
            assert v.metrics_all.rmse < 0.02 * scale

    def test_raw_columns_named_like_ecm_diffs_change_nothing(self):
        # the ECM builds its own d_<column> diffs; passthrough columns of
        # the same names must neither collide with them nor replace them
        data = generate(ScenarioConfig(seed=2))
        junk = [
            series(np.linspace(-1.0, 1.0, 92), Quarter.from_index(data.frame.start_index), n)
            for n in ("d_house_price", "d_income")
        ]
        reports = [
            run_grid(build_features(raw, data.params), default_specs(), SplitSpec()).to_json()
            for raw in (data.frame, align(list(data.frame.columns.values()) + junk))
        ]
        assert reports[0] == reports[1]
        assert all(v["error"] is None for v in json.loads(reports[0])["variants"])

    def test_truncated_training_never_sees_holdout(self, features):
        split = SplitSpec()
        report = run_grid(features, default_specs(), split)
        for v in report.variants:
            fit = v.fit.underlying if v.approach == "ecm" else v.fit
            train_end = fit.design.rows[-1]
            if v.regime == "truncated":
                assert train_end <= split.cutoff
            else:
                assert train_end > split.cutoff

    def test_full_fit_beats_truncated_on_all_quarters(self, features):
        # The full-sample fit minimizes squared error over a superset of the
        # truncated training rows, so with a common prediction rule its RMSE
        # over all quarters cannot be worse. A truncated ECM's static
        # alternative is the full ECM's one-step rule.
        report = run_grid(features, default_specs(), SplitSpec())
        for spec in default_specs():
            full = report.variant(spec.name, spec.approach, "full")
            truncated = report.variant(spec.name, spec.approach, "truncated")
            ecm = spec.approach == "ecm"
            same_rule = truncated.alt_metrics_all if ecm else truncated.metrics_all
            assert full.metrics_all.rmse <= same_rule.rmse + 1e-9

    def test_report_deterministic(self, features):
        a = run_grid(features, default_specs(), SplitSpec()).to_json()
        b = run_grid(features, default_specs(), SplitSpec()).to_json()
        assert a == b

    def test_failure_isolated(self, features):
        specs = default_specs(models=tuple(MODELS))
        report = run_grid(with_collinear_debt(features), specs, SplitSpec())
        broken = [v for v in report.variants if v.name == "benchmark_debt"]
        assert len(broken) == 4
        assert all(v.error is not None for v in broken)
        assert all(v.error is None for v in report.variants if v.name != "benchmark_debt")

    def test_unknown_regressor_column_rejected(self, features):
        with pytest.raises(SchemaError, match="debt_to_gdp"):
            run_grid(features, default_specs(models=["benchmark_debt"]), SplitSpec())

    def test_duplicate_spec_rejected(self, features):
        with pytest.raises(SchemaError, match="hlc"):
            run_grid(features, [ModelSpec("hlc"), ModelSpec("hlc")], SplitSpec())

    def test_cutoff_outside_sample_rejected(self, features):
        with pytest.raises(DataError, match="^cutoff 2050Q1 has no observed 'house_price' value"):
            run_grid(features, default_specs(), SplitSpec(cutoff=parse_quarter("2050Q1")))

    def test_cutoff_at_a_missing_price_rejected(self, features):
        cutoff = parse_quarter("2008Q2")
        price = features.column("house_price").to_array()
        price[cutoff - features.start_index] = np.nan
        columns = dict(features.columns)
        columns["house_price"] = columns["house_price"]._with_array(price)
        with pytest.raises(DataError, match="^cutoff 2008Q2 has no observed 'house_price' value$"):
            run_grid(align(columns.values()), default_specs(), SplitSpec(cutoff=cutoff))

    def test_cutoff_at_the_last_labelled_quarter(self, features, tmp_path):
        # a sample ending at 9999Q4 has no labelled quarter after its cutoff, and no holdout
        last = parse_quarter("9999Q4")
        i0 = last - len(features) + 1
        frame = align(s._with_array(s.array, i0) for s in features.columns.values())
        report = run_grid(frame, default_specs(), SplitSpec(cutoff=last))
        assert all(v.error is None and v.metrics_holdout is None for v in report.variants)
        ecm = report.variant("hlc", "ecm", "truncated")
        assert ecm.to_dict()["alt_forecast"]["mode"] == "static" and ecm.alt_metrics_holdout is None
        assert json.loads(report.to_json())["cutoff"] == "9999Q4"
        emit_plot_data(report, tmp_path)
        assert (tmp_path / "hlc_ecm_truncated.csv").read_text().splitlines()[-1].startswith("9999Q4,")

    def test_unknown_variant_is_key_error(self, features):
        report = run_grid(features, default_specs(models=["hlc"]), SplitSpec())
        with pytest.raises(KeyError, match="no variant benchmark/ols/full"):
            report.variant("benchmark", "ols", "full")

    def test_ecm_truncated_reports_both_modes(self, features):
        report = run_grid(features, default_specs(), SplitSpec())
        v = report.variant("hlc", "ecm", "truncated").to_dict()
        assert v["forecast_mode"] == "dynamic"
        assert v["alt_forecast"]["mode"] == "static"
        assert v["alt_forecast"]["metrics_all"]["rmse"] > 0.0

    def test_report_json_schema(self, features):
        doc = json.loads(run_grid(features, default_specs(), SplitSpec()).to_json())
        assert doc["schema_version"] == 1
        assert doc["cutoff"] == "2008Q2"
        assert len(doc["variants"]) == 12
        v = doc["variants"][0]
        for key in ("name", "approach", "regime", "metrics_all", "metrics_holdout",
                    "coefficients", "stats", "train", "error"):
            assert key in v
        assert set(v["metrics_all"]) == {"rmse", "mae", "n"}
        for entry in v["coefficients"].values():
            assert set(entry) == {"estimate", "stderr"}

    def test_adding_regressor_never_lowers_r2(self, features):
        # Nested-model sanity: on a common sample, the model with the extra
        # capacity term fits at least as well as the plain benchmark.
        wide = design_matrix(
            features,
            HOUSE_PRICE,
            [INCOME, INTEREST_RATE, LTV, (HLC_INCOME_RATIO, 6)],
        )
        # the same rows without the capacity column (intercept + 3 regressors)
        narrow = DesignMatrix(
            response=wide.response,
            matrix=wide.matrix[:, :4],
            rows=wide.rows,
            response_name=wide.response_name,
            terms=wide.terms[:3],
        )
        assert ols_fit(wide).r_squared >= ols_fit(narrow).r_squared - 1e-12


def with_collinear_debt(features: Frame) -> Frame:
    """``features`` plus a debt ratio equal to loan-to-value, which the debt variants
    cannot fit: the error names both columns, comma separated."""
    return align(list(features.columns.values()) + [features.column(LTV).rename("debt_to_gdp")])


def cut_frame(frame: Frame, last: Quarter) -> Frame:
    """The frame's quarters up to and including ``last``."""
    k = last.index - frame.start_index + 1
    return align(s._with_array(s.array[:k]) for s in frame.columns.values())


class TestOneDesignPerSpec:
    """The truncated regime fits the row prefix of the spec's full design."""

    @pytest.fixture(scope="class")
    def gappy(self, features):
        # interior missing quarters in the response, a benchmark input and the capacity
        columns = []
        for s in features.columns.values():
            a = s.to_array()
            if s.name in (HOUSE_PRICE, INCOME, HLC):
                a[[22, 30, 31, 47, 60]] = np.nan
            columns.append(s._with_array(a))
        return align(columns)

    @pytest.mark.parametrize(
        "cutoff", [Quarter(2008, 2), Quarter(2006, 4), Quarter(2003, 1)], ids=str
    )
    @pytest.mark.parametrize("gaps", [False, True], ids=["complete", "interior-gaps"])
    def test_prefix_equals_design_of_cut_frame(self, features, gappy, cutoff, gaps):
        frame = gappy if gaps else features
        for spec in default_specs():
            prefix = _spec_design(frame, spec, HOUSE_PRICE)[0].until(cutoff.index)
            cut = _spec_design(cut_frame(frame, cutoff), spec, HOUSE_PRICE)[0]
            assert (prefix.names, prefix.terms) == (cut.names, cut.terms)
            assert prefix.rows[-1] <= cutoff.index and len(prefix.rows) > len(prefix.names)
            for field in ("response", "matrix", "rows"):
                assert np.array_equal(getattr(prefix, field), getattr(cut, field)), (
                    spec.name, spec.approach, field
                )

    def test_one_design_matrix_call_per_spec(self, features, monkeypatch):
        calls = []
        original = hlcast.regress.design_matrix

        def counted(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(hlcast.regress, "design_matrix", counted)
        monkeypatch.setattr(hlcast.backtest, "design_matrix", counted)
        report = run_grid(features, default_specs(), SplitSpec())
        assert all(v.error is None for v in report.variants)
        assert sorted(calls) == ["d_house_price"] * 3 + ["house_price"] * 3

    def test_infinite_cell_after_cutoff_fails_only_the_full_fit(self, features):
        columns = dict(features.columns)
        a = columns[LTV].to_array()
        a[70] = math.inf  # after the cutoff
        columns[LTV] = columns[LTV]._with_array(a)
        report = run_grid(align(columns.values()), default_specs(), SplitSpec())
        for approach in ("ols", "ecm"):
            # the truncated rows stop before the infinite cell and still fit
            assert report.variant("benchmark", approach, "truncated").error is None
            assert report.variant("benchmark", approach, "full").error == (
                "DataError: design matrix contains missing or non-finite cells"
            )

        def no_constant(name):
            raise ValueError(f"{name} is not strict JSON")

        # the truncated variants score infinite predictions: their metrics are null
        doc = json.loads(report.to_json(), parse_constant=no_constant)
        truncated = [
            v["metrics_all"]
            for v in doc["variants"]
            if v["name"] == "benchmark" and v["regime"] == "truncated"
        ]
        assert [(m["rmse"], m["mae"]) for m in truncated] == [(None, None)] * 2


class TestFitWork:
    def test_healthy_grid_computes_no_svd(self, features, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        report = run_grid(features, default_specs(), SplitSpec())
        assert all(v.error is None for v in report.variants)
        assert calls == []

    def test_overflowing_price_fails_every_variant_fitted_on_it(self):
        features = build_features(generate(ScenarioConfig(seed=0)).frame, LtiParams())
        columns = dict(features.columns)
        a = columns[HOUSE_PRICE].to_array()
        a[20] = 1e308  # 2000Q1, before the cutoff: every variant trains on it
        columns[HOUSE_PRICE] = columns[HOUSE_PRICE]._with_array(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_grid(align(columns.values()), default_specs(), SplitSpec())
        assert len(report.variants) == 12
        for v in report.variants:
            # OLS: the response's squares; ECM: those of its lagged level
            assert v.error.startswith("NumericalError: squares of "), v.error
            assert "house_price" in v.error and "overflow" in v.error, v.error

    def test_overflowing_errors_score_as_null(self, tmp_path):
        # a 1e308 price after the cutoff: the truncated fits never see it, but
        # their squared errors on it overflow
        features = build_features(generate(ScenarioConfig(seed=0)).frame, LtiParams())
        columns = dict(features.columns)
        a = columns[HOUSE_PRICE].to_array()
        a[70] = 1e308
        columns[HOUSE_PRICE] = columns[HOUSE_PRICE]._with_array(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_grid(align(columns.values()), default_specs(), SplitSpec())
            doc = json.loads(report.to_json(), parse_constant=pytest.fail)
            emit_plot_data(report, tmp_path)
        truncated = [v for v in doc["variants"] if v["regime"] == "truncated"]
        assert len(truncated) == 6
        for v in truncated:
            assert v["error"] is None, v["error"]
            assert v["metrics_all"]["rmse"] is None
            assert v["metrics_holdout"]["rmse"] is None
        # summary.csv writes a null metric as an empty cell, as the plot files
        # write a missing value
        with (tmp_path / "summary.csv").open(newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["regime"] == "truncated"]
        assert len(rows) == 6
        for row in rows:
            assert row["rmse_all_eur"] == row["rmse_holdout_eur"] == "", row
            for key in ("mae_all_eur", "n_all", "mae_holdout_eur", "n_holdout"):
                assert math.isfinite(float(row[key])), (key, row)


class TestReportJson:
    def test_one_variant_per_line(self, features):
        report = run_grid(features, default_specs(), SplitSpec())
        text = report.to_json()
        assert json.loads(text) == report.to_dict()
        lines = text.split("\n")
        assert lines[0].startswith('{"schema_version": 1, "cutoff": "2008Q2", ')
        assert lines[0].endswith('"variants": [')
        assert lines[-2:] == ["]}", ""]
        variants = [json.loads(line.removesuffix(",")) for line in lines[1:-2]]
        assert variants == report.to_dict()["variants"]

    def test_variant_entry_shape(self, features):
        specs = default_specs(models=tuple(MODELS))
        report = run_grid(with_collinear_debt(features), specs, SplitSpec())
        entries = {(v["name"], v["approach"], v["regime"]): v for v in report.to_dict()["variants"]}
        ols, ecm = entries["hlc", "ols", "full"], entries["hlc", "ecm", "truncated"]
        for entry in (ols, ecm):
            assert entry["coefficients"]
            for coefficient in entry["coefficients"].values():
                assert set(coefficient) == {"estimate", "stderr"}
            assert set(entry["stats"]) == {"r2", "adj_r2", "resid_se", "f_stat", "n"}
        assert ecm["gamma"] is not None and ecm["long_run_alphas"] is not None
        failed = entries["benchmark_debt", "ols", "full"]
        assert failed["error"] is not None
        assert failed["coefficients"] is None and failed["stats"] is None
        for entry in (ols, failed):
            assert entry["gamma"] is None and entry["long_run_alphas"] is None

    def test_indented_layout_is_one_reencode_away(self, features):
        # the indent=2 layout of earlier releases, from the same document
        report = run_grid(features, default_specs(), SplitSpec())
        indented = json.dumps(report.to_dict(), indent=2) + "\n"
        assert json.dumps(json.loads(report.to_json()), indent=2) + "\n" == indented
        small = BacktestReport(
            variants=[VariantResult("hlc", "ols", "full", error="DataError: no data")],
            split=SplitSpec(),
            observed=series([1.0]),
        )
        assert json.dumps(json.loads(small.to_json()), indent=2) + "\n" == INDENTED_SMALL


# json.dumps(small.to_dict(), indent=2) + "\n", as the indented encoder wrote it
INDENTED_SMALL = """{
  "schema_version": 1,
  "cutoff": "2008Q2",
  "evaluation_window": "all_quarters",
  "forecast_mode": "dynamic",
  "variants": [
    {
      "name": "hlc",
      "approach": "ols",
      "regime": "full",
      "metrics_all": null,
      "metrics_holdout": null,
      "coefficients": null,
      "stats": null,
      "gamma": null,
      "long_run_alphas": null,
      "train": {
        "n": 0,
        "start": null,
        "end": null
      },
      "forecast_mode": null,
      "alt_forecast": null,
      "error": "DataError: no data"
    }
  ]
}
"""


class TestEmitPlotData:
    def test_files_and_headers(self, features, tmp_path):
        report = run_grid(features, default_specs(), SplitSpec())
        written = emit_plot_data(report, tmp_path)
        assert len(written) == 13  # 12 variants + summary
        sample = tmp_path / "hlc_ols_truncated.csv"
        assert sample.is_file()
        lines = sample.read_text().splitlines()
        assert lines[0] == "quarter,observed,fitted_or_forecast,regime"
        assert lines[1].startswith("1995Q1,")
        assert lines[1].endswith(",truncated")
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("model,approach,regime,rmse_all_eur,mae_all_eur")
        assert len(summary) == 13

    def test_rewrites_identically(self, features, tmp_path):
        report = run_grid(features, default_specs(), SplitSpec())
        emit_plot_data(report, tmp_path)
        first = (tmp_path / "summary.csv").read_bytes()
        emit_plot_data(report, tmp_path)
        assert (tmp_path / "summary.csv").read_bytes() == first

    def test_failed_variant_row_keeps_its_width(self, features, tmp_path):
        # a debt ratio equal to loan-to-value fails the debt variants with an
        # error naming both columns, comma separated
        debt = features.column(LTV).rename("debt_to_gdp")
        frame = align(list(features.columns.values()) + [debt])
        report = run_grid(frame, default_specs(models=["benchmark", "benchmark_debt"]))
        failed = [v for v in report.variants if v.error]
        assert len(failed) == 4 and all(", " in v.error for v in failed)
        written = emit_plot_data(report, tmp_path)
        assert sorted(written) == sorted(tmp_path.iterdir())
        for path in written:
            with path.open(newline="") as fh:
                header, *rows = csv.reader(fh)
            assert all(len(row) == len(header) for row in rows), path.name
        with (tmp_path / "summary.csv").open(newline="") as fh:
            errors = [row["error"] for row in csv.DictReader(fh)]
        assert errors == [v.error or "" for v in report.variants]


class TestSpecValidation:
    def test_bad_approach(self):
        with pytest.raises(ValueError):
            ModelSpec("hlc", "bayes")

    def test_unknown_model(self):
        known = "known: benchmark, hlc, benchmark_hlc, benchmark_debt"
        with pytest.raises(ValueError, match=f"'x' \\({known}\\)"):
            ModelSpec("x")

    @pytest.mark.parametrize("lag", [True, 2.0, "6", None], ids=repr)
    def test_non_integer_hlc_lag(self, lag):
        with pytest.raises(TypeError, match=f"^hlc_lag must be an integer, got {lag!r}$"):
            ModelSpec("hlc", hlc_lag=lag)

    def test_negative_hlc_lag(self):
        with pytest.raises(ValueError, match="^hlc_lag must be >= 0, got -1$"):
            ModelSpec("hlc", hlc_lag=-1)

    def test_numpy_integer_hlc_lag_stored_as_int(self):
        spec = ModelSpec("hlc", hlc_lag=np.int64(3))
        assert type(spec.hlc_lag) is int and spec == ModelSpec("hlc", hlc_lag=3)

    def test_design_names_follow_the_lag_rule(self, features):
        # capacity columns enter at the capacity lag (3 here) in levels and at
        # lags 4 (differenced) and 5 (level) in the ECM; the others unlagged
        # and as a level at lag 1
        benchmark = ["income", "interest_rate", "ltv"]
        benchmark_ecm = ["d_income", "d_interest_rate", "d_ltv", "house_price_lag1",
                         "income_lag1", "interest_rate_lag1", "ltv_lag1"]
        expected = {
            ("benchmark", "ols"): benchmark,
            ("benchmark", "ecm"): benchmark_ecm,
            ("hlc", "ols"): ["hlc_lag3"],
            ("hlc", "ecm"): ["d_hlc_lag4", "house_price_lag1", "hlc_lag5"],
            ("benchmark_hlc", "ols"): benchmark + ["hlc_income_ratio_lag3"],
            ("benchmark_hlc", "ecm"): benchmark_ecm[:3] + ["d_hlc_income_ratio_lag4"]
            + benchmark_ecm[3:] + ["hlc_income_ratio_lag5"],
            ("benchmark_debt", "ols"): benchmark + ["debt_to_gdp"],
            ("benchmark_debt", "ecm"): benchmark_ecm[:3] + ["d_debt_to_gdp"]
            + benchmark_ecm[3:] + ["debt_to_gdp_lag1"],
        }
        frame = with_collinear_debt(features)
        names = {
            (spec.name, spec.approach): _spec_design(frame, spec, HOUSE_PRICE)[0].names
            for spec in default_specs(3, tuple(MODELS))
        }
        assert names == {key: ["intercept"] + terms for key, terms in expected.items()}

    @pytest.mark.parametrize("cutoff", [Quarter(2008, 2), True, 8033.0, "2008Q2"], ids=repr)
    def test_non_integer_cutoff(self, cutoff):
        message = f"^cutoff must be an integer, got {re.escape(repr(cutoff))}$"
        with pytest.raises(TypeError, match=message):
            SplitSpec(cutoff=cutoff)

    def test_numpy_integer_cutoff_stored_as_int(self):
        split = SplitSpec(cutoff=np.int64(8033))
        assert type(split.cutoff) is int and split == SplitSpec() == SplitSpec(cutoff=8033)

    def test_bad_evaluation_window(self):
        with pytest.raises(ValueError):
            SplitSpec(evaluation_window="sometimes")

    def test_default_specs_shape(self):
        specs = default_specs()
        assert len(specs) == 6
        assert {(s.name, s.approach) for s in specs} == {
            (n, a)
            for n in ("benchmark", "hlc", "benchmark_hlc")
            for a in ("ols", "ecm")
        }
        specs = default_specs(models=("benchmark", "hlc", "benchmark_hlc", "benchmark_debt"))
        assert len(specs) == 8
