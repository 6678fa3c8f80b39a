import json
import math

import numpy as np
import pytest

from hlcast.backtest import (
    HLC,
    HLC_INCOME_RATIO,
    HOUSE_PRICE,
    INCOME,
    INTEREST_ONLY_SHARE,
    INTEREST_RATE,
    LTV,
    ModelSpec,
    Regressor,
    SplitSpec,
    build_features,
    default_specs,
    emit_plot_data,
    evaluate,
    run_grid,
)
from hlcast.errors import DataError, SchemaError
from hlcast.lti import LtiParams
from hlcast.regress import design_matrix, ols_fit
from hlcast.synthetic import ScenarioConfig, generate
from hlcast.timeseries import Quarter, QuarterlySeries, align

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
        m = evaluate(obs, pred, first=START + 1, last=START + 2)
        assert m.rmse == 0.0 and m.n_evaluated == 2

    def test_empty_overlap_is_error(self):
        with pytest.raises(DataError):
            evaluate(series([1.0, None]), series([None, 1.0]))

    def test_missing_pairs_skipped(self):
        m = evaluate(series([1.0, None, 3.0]), series([1.5, 2.0, None]))
        assert m.n_evaluated == 1


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
        q = raw.start + 10
        expected = sum(raw.column(INCOME).get(q - i) for i in range(4)) / 4.0
        assert feats.column(INCOME).get(q) == pytest.approx(expected, rel=1e-12)
        # loan-to-value gaps are filled from the most recent report
        assert feats.column(LTV).get(raw.start + 2) == 1.01
        # the ratio column is capacity over (smoothed) income
        assert feats.column(HLC_INCOME_RATIO).get(q) == pytest.approx(
            feats.column(HLC).get(q) / feats.column(INCOME).get(q), rel=1e-12
        )
        # the headline lag is the capacity series shifted six quarters
        assert feats.column(f"{HLC}_lag6").get(q) == feats.column(HLC).get(q - 6)

    def test_interest_only_zero_from(self):
        raw = make_raw()
        cut = raw.start + 30
        feats = build_features(raw, LtiParams(), interest_only_zero_from=cut)
        share = feats.column(INTEREST_ONLY_SHARE)
        assert all(share.get(q) == 0.0 for q in share.quarters() if q >= cut)
        assert share.get(cut - 1) != 0.0

    def test_share_derived_from_stock_inputs(self):
        raw = make_raw()
        cols = [raw.column(c) for c in raw.names() if c != INTEREST_ONLY_SHARE]
        n = len(raw)
        stock = series(
            [min(0.5, 0.005 * i) for i in range(n)], raw.start,
            "interest_only_stock_share", unit="fraction",
        )
        trans = series([5_000.0] * n, raw.start, "transactions")
        hh = series([100_000.0] * n, raw.start, "households")
        frame = align(cols + [stock, trans, hh])
        feats = build_features(frame, LtiParams())
        share = feats.column(INTEREST_ONLY_SHARE)
        assert share.get(raw.start) is None  # no prior stock observation
        assert 0.0 <= share.get(raw.start + 10) <= 1.0

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

    def test_truncated_training_never_sees_holdout(self, features):
        split = SplitSpec()
        report = run_grid(features, default_specs(), split)
        for v in report.variants:
            if v.regime == "truncated":
                assert v.train_end <= split.cutoff
            else:
                assert v.train_end > split.cutoff

    def test_full_fit_beats_truncated_on_all_quarters(self, features):
        # The full-sample fit minimizes squared error over a superset of the
        # truncated training rows, so with a common prediction rule its RMSE
        # over all quarters cannot be worse. Static mode keeps the ECM
        # prediction rule identical across regimes.
        report = run_grid(features, default_specs(), SplitSpec(), forecast_mode="static")
        for spec in default_specs():
            full = report.variant(spec.name, spec.approach, "full")
            truncated = report.variant(spec.name, spec.approach, "truncated")
            assert full.metrics_all.rmse <= truncated.metrics_all.rmse + 1e-9

    def test_report_deterministic(self, features):
        a = run_grid(features, default_specs(), SplitSpec()).to_json()
        b = run_grid(features, default_specs(), SplitSpec()).to_json()
        assert a == b

    def test_failure_isolated(self, features):
        specs = default_specs() + [
            ModelSpec(name="broken", regressors=(Regressor(INCOME), Regressor(INCOME)))
        ]
        report = run_grid(features, specs, SplitSpec())
        broken = [v for v in report.variants if v.name == "broken"]
        assert len(broken) == 2
        assert all(v.error is not None for v in broken)
        assert all(v.error is None for v in report.variants if v.name != "broken")

    def test_unknown_regressor_column_rejected(self, features):
        with pytest.raises(SchemaError, match="nonexistent"):
            run_grid(
                features,
                [ModelSpec(name="x", regressors=(Regressor("nonexistent"),))],
                SplitSpec(),
            )

    def test_duplicate_spec_rejected(self, features):
        spec = ModelSpec(name="dup", regressors=(Regressor(INCOME),))
        with pytest.raises(SchemaError, match="dup"):
            run_grid(features, [spec, spec], SplitSpec())

    def test_cutoff_outside_sample_rejected(self, features):
        with pytest.raises(DataError):
            run_grid(features, default_specs(), SplitSpec(cutoff=Quarter(2050, 1)))

    def test_ecm_truncated_reports_both_modes(self, features):
        report = run_grid(features, default_specs(), SplitSpec(), forecast_mode="dynamic")
        v = report.variant("hlc", "ecm", "truncated")
        assert v.forecast_mode == "dynamic"
        assert v.alt_forecast is not None and v.alt_forecast["mode"] == "static"
        assert v.alt_forecast["metrics_all"]["rmse"] > 0.0

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
        narrow = design_matrix(
            features,
            HOUSE_PRICE,
            [INCOME, INTEREST_RATE, LTV],
            first=wide.row_index[0],
            last=wide.row_index[-1],
        )
        assert narrow.row_index == wide.row_index
        assert ols_fit(wide).r_squared >= ols_fit(narrow).r_squared - 1e-12


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


class TestSpecValidation:
    def test_bad_approach(self):
        with pytest.raises(ValueError):
            ModelSpec(name="x", regressors=(Regressor(INCOME),), approach="bayes")

    def test_no_regressors(self):
        with pytest.raises(ValueError):
            ModelSpec(name="x", regressors=())

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
        specs = default_specs(include_debt_ratio=True)
        assert len(specs) == 8
