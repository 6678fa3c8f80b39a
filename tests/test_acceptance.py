"""Acceptance suite: one test per criterion, one printed verdict line each.

The property criteria run on synthetic data only. The reproduction criteria
need user-supplied CBS/DNB series (see conftest.real_data_dir) and are
reported as SKIPPED when those are absent.
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    REAL_DATA_ENV, REAL_SERIES, design_from_arrays, fitted_by_quarter, real_data_dir, value_at
)
from test_regress import normal_equations_fit, random_system, simulate_ecm

import hlcast
from hlcast.backtest import (
    HLC,
    HOUSE_PRICE,
    SplitSpec,
    build_features,
    default_specs,
    evaluate,
    run_grid,
)
from hlcast.config import load_config
from hlcast.lti import (
    HouseholdInputs,
    LtiParams,
    annuity_factor,
    hlc,
    max_annuity,
    max_interest_only,
    new_mortgage_share,
)
from hlcast.regress import (
    design_matrix,
    ecm_design,
    ecm_fit,
    ecm_forecast,
    lag_scan,
    ols_fit,
)
from hlcast.synthetic import ScenarioConfig, generate
from hlcast.timeseries import Quarter, QuarterlySeries, align, read_series_csv

import math


def verdict(number: int, label: str, ok: bool = True, note: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({note})" if note else ""
    print(f"ACCEPTANCE {number:02d} {label}: {state}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def skipped(number: int, label: str, reason: str) -> None:
    print(f"ACCEPTANCE {number:02d} {label}: SKIPPED ({reason})")
    pytest.skip(f"criterion {number}: {reason}")


def test_criterion_01_annuity_amortization_oracle():
    rates = [0.001, 0.005] + [round(0.01 * k, 2) for k in range(1, 16)]
    start = time.perf_counter()
    worst = 0.0
    for x in rates:
        balance = annuity_factor(x, 360)
        monthly = x / 12.0
        for _ in range(360):
            balance = balance * (1.0 + monthly) - 1.0
        worst = max(worst, abs(balance))
    elapsed = time.perf_counter() - start
    verdict(
        1,
        "annuity amortization oracle",
        worst < 1e-9 and elapsed < 1.0,
        f"max residual {worst:.2e}, {elapsed * 1000:.0f} ms",
    )


def test_criterion_02_ols_normal_equations_equivalence():
    rng = np.random.default_rng(20_240_601)
    worst = 0.0
    for _ in range(200):
        y, x = random_system(rng)
        fit = ols_fit(design_from_arrays(y, x[:, 1:]))
        beta, *_ = normal_equations_fit(y, x)
        got = np.array(list(fit.coefficients.values()))
        rel = np.max(np.abs(got - beta) / np.maximum(np.abs(beta), 1e-12))
        worst = max(worst, float(rel))
    verdict(2, "OLS matches normal-equations oracle", worst < 1e-8, f"max rel err {worst:.2e}")


def test_criterion_03_ecm_reparametrization_identity():
    import warnings

    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(30, 90))
        y = np.cumsum(rng.normal(size=n)) + 40.0
        x = np.cumsum(rng.normal(size=n)) + 15.0
        ys = QuarterlySeries("y", Quarter(2000, 1), tuple(y))
        xs = QuarterlySeries("x", Quarter(2000, 1), tuple(x))
        with warnings.catch_warnings():
            # random-walk pairs occasionally fit a positive adjustment
            # coefficient; irrelevant to the identity under test
            warnings.simplefilter("ignore", UserWarning)
            frame = align([ys, xs, ys.diff().rename("d_y"), xs.diff().rename("d_x")])
            fit = ecm_fit(ecm_design(frame, "y", ["d_x"], [("x", 1)]))
        fitted = fitted_by_quarter(fit.underlying)
        scale = max(abs(v) for v in fitted.values())
        for q, want in fitted.items():
            restricted = (
                fit.intercept
                + fit.underlying.coefficients["d_x"] * value_at(xs.diff(), q)
                + fit.gamma
                * (value_at(ys.lag(1), q) - fit.long_run_alphas["x_lag1"] * value_at(xs.lag(1), q))
            )
            worst = max(worst, abs(restricted - want) / scale)
    verdict(3, "ECM reparametrization identity", worst < 1e-10, f"max rel err {worst:.2e}")


def test_criterion_04_ecm_identification_and_dynamic_forecast():
    x, y = simulate_ecm(n=140, gamma=-0.3, alpha=1.0, beta0=0.5, beta1=0.8, noise=0.0)
    xs = QuarterlySeries("x", Quarter(2000, 1), tuple(x))
    train = QuarterlySeries("y", Quarter(2000, 1), tuple(y[:120]))
    fit = ecm_fit(
        ecm_design(
            align([train, xs, train.diff().rename("d_y"), xs.diff().rename("d_x")]),
            "y",
            ["d_x"],
            [("x", 1)],
        )
    )
    params_ok = (
        abs(fit.gamma - (-0.3)) < 1e-8
        and abs(fit.long_run_alphas["x_lag1"] - 1.0) < 1e-8
        and abs(fit.underlying.coefficients["d_x"] - 0.8) < 1e-8
        and abs(fit.intercept - 0.5) < 1e-8
    )
    frame = align([QuarterlySeries("y", Quarter(2000, 1), tuple(y)), xs, xs.diff().rename("d_x")])
    start = Quarter(2000, 1).index + 120
    forecast = ecm_forecast(fit, frame, start, mode="dynamic")
    err = max(abs(value_at(forecast, start + i) - y[120 + i]) for i in range(20))
    verdict(
        4,
        "noiseless ECM identification and 20-step dynamic forecast",
        params_ok and err < 1e-6,
        f"max forecast err {err:.2e}",
    )


def test_criterion_05_interest_only_share_worked_example():
    share = new_mortgage_share(mover_share=0.05, stock_delta=0.025, prior_stock=0.40)
    verdict(5, "new-mortgage interest-only share worked example", share == 0.70, f"got {share}")


def test_criterion_06_capacity_degenerate_weights():
    p = LtiParams()
    cases = [(17_500.0, 0.05), (9_000.0, 0.021), (31_000.0, 0.084)]
    ok = True
    for income, rate in cases:
        annuity_only = hlc(HouseholdInputs(income, rate, 0.0), p)
        interest_only = hlc(HouseholdInputs(income, rate, 1.0), p)
        midpoint = hlc(HouseholdInputs(income, rate, 0.5), p)
        ok &= annuity_only == max_annuity(HouseholdInputs(income, rate, 0.0), p)
        ok &= interest_only == max_interest_only(HouseholdInputs(income, rate, 1.0), p)
        ok &= abs(midpoint - (annuity_only + interest_only) / 2.0) <= math.ulp(interest_only)
    verdict(6, "capacity weights degenerate and affine", ok)


def test_criterion_07_lag_scan_recovery():
    hits, min_r2 = 0, 1.0
    for seed in range(20):
        data = generate(ScenarioConfig(seed=seed, noise_scale=0.01))
        feats = build_features(data.frame, data.params)
        result = lag_scan(feats.column(HOUSE_PRICE), feats.column(HLC), range(0, 9))
        best = result.best_lag
        r2 = {e.lag: e.r_squared for e in result.entries}[6]
        hits += best == 6
        min_r2 = min(min_r2, r2)
    verdict(
        7,
        "lag scan recovers the six-quarter lead",
        hits == 20 and min_r2 > 0.95,
        f"argmax hits {hits}/20, min R^2 {min_r2:.4f}",
    )


def test_criterion_08_metric_identities():
    s = QuarterlySeries("s", Quarter(2000, 1), (1.0, 2.0, 3.0))
    zero = evaluate(s, s)
    obs = QuarterlySeries("o", Quarter(2000, 1), (0.0, 0.0))
    pred = QuarterlySeries("p", Quarter(2000, 1), (3.0, -4.0))
    hand = evaluate(obs, pred)
    rng = np.random.default_rng(55)
    jensen = True
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        e = rng.normal(size=n) * rng.uniform(0.01, 1000)
        o = QuarterlySeries("o", Quarter(2000, 1), tuple(np.zeros(n)))
        q = QuarterlySeries("p", Quarter(2000, 1), tuple(e))
        m = evaluate(o, q)
        jensen &= m.mae <= m.rmse + 1e-12
    verdict(
        8,
        "metric identities",
        zero.rmse == 0.0
        and zero.mae == 0.0
        and abs(hand.mae - 3.5) < 1e-12
        and abs(hand.rmse - math.sqrt(12.5)) < 1e-12
        and jensen,
    )


def test_criterion_09_end_to_end_determinism(tmp_path, cli):
    reports = []
    for child in ("first", "second"):
        root = tmp_path / child
        code, out, err = cli(["synth", "--out", str(root), "--seed", "1"])
        assert code == 0, out + err
        config = root / "config.yaml"
        for command in ("ingest", "features", "backtest", "report"):
            code, out, err = cli([command, "--config", str(config)])
            assert code == 0, out + err
        reports.append((load_config(config).run_dir() / "report.json").read_bytes())
    identical = reports[0] == reports[1]

    feats = build_features(generate(ScenarioConfig(seed=1)).frame, LtiParams())
    start = time.perf_counter()
    run_grid(feats, default_specs(), SplitSpec())
    grid_seconds = time.perf_counter() - start
    verdict(
        9,
        "pipeline determinism and grid runtime",
        identical and grid_seconds < 1.0,
        f"report bytes identical, grid {grid_seconds * 1000:.0f} ms",
    )


# -- conditional reproduction suite (real CBS/DNB data) ----------------------


@pytest.fixture(scope="module")
def real_report():
    path = real_data_dir()
    if path is None:
        return None
    series = [read_series_csv(path / f"{name}.csv", name=name) for name in REAL_SERIES]
    features = build_features(align(series), LtiParams())
    return run_grid(features, default_specs(), SplitSpec()), features


def _real_or_skip(number: int, label: str, real_report):
    if real_report is None:
        skipped(number, label, f"real CBS/DNB data not supplied; set {REAL_DATA_ENV}")
    return real_report


def test_criterion_10_capacity_model_robustness(real_report):
    report, _ = _real_or_skip(10, "capacity OLS robustness", real_report)
    full = report.variant("hlc", "ols", "full").metrics_all.rmse
    truncated = report.variant("hlc", "ols", "truncated").metrics_all.rmse
    gap = abs(full - truncated) / max(full, truncated)
    verdict(
        10,
        "capacity OLS robustness",
        gap <= 0.05,
        f"rmse full {full:.0f} vs truncated {truncated:.0f}, gap {gap:.1%}",
    )


def test_criterion_11_benchmark_degradation(real_report):
    report, _ = _real_or_skip(11, "benchmark OLS degradation", real_report)
    full = report.variant("benchmark", "ols", "full").metrics_all.rmse
    truncated = report.variant("benchmark", "ols", "truncated").metrics_all.rmse
    verdict(
        11,
        "benchmark OLS degradation",
        truncated >= 2.5 * full,
        f"rmse full {full:.0f} vs truncated {truncated:.0f}",
    )


def test_criterion_12_capacity_mae_advantage(real_report):
    report, _ = _real_or_skip(12, "capacity MAE advantage", real_report)
    capacity = report.variant("hlc", "ols", "full").metrics_all.mae
    benchmark = report.variant("benchmark", "ols", "full").metrics_all.mae
    reduction = 1.0 - capacity / benchmark
    if reduction >= 0.20:
        note = f"textual ratio met: {reduction:.1%} lower MAE"
    elif reduction >= 0.02:
        note = f"tabled ratio met: {reduction:.1%} lower MAE"
    else:
        note = f"MAE only {reduction:.1%} lower"
    verdict(12, "capacity MAE advantage", reduction >= 0.02, note)


def test_criterion_13_capacity_coefficient(real_report):
    report, features = _real_or_skip(13, "capacity coefficient", real_report)
    fit = ols_fit(design_matrix(features, HOUSE_PRICE, [(HLC, 6)]))
    coeff = fit.coefficients[f"{HLC}_lag6"]
    ok = abs(coeff / 1.410 - 1.0) <= 0.10 and fit.r_squared >= 0.94
    verdict(
        13,
        "capacity coefficient",
        ok,
        f"coefficient {coeff:.3f}, R^2 {fit.r_squared:.3f}",
    )


def test_real_data_criteria_reach_their_verdicts(tmp_path, cli):
    # Criteria 10-13 on a synthetic workspace, which no CI run has real data
    # for: each must reach its verdict line, and no failure may be other than
    # a verdict's own assertion. Their bounds are not checked here.
    workspace = tmp_path / "ws"
    code, out, err = cli(["synth", "--out", str(workspace), "--seed", "0"])
    assert code == 0, out + err
    env = {
        **os.environ,
        REAL_DATA_ENV: str(workspace),
        "PYTHONPATH": str(Path(hlcast.__file__).parents[1]),
    }
    criteria = " or ".join(f"criterion_{n}" for n in range(10, 14))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", __file__, "-k", criteria, "-s", "-q", "--tb=line",
         "-p", "no:cacheprovider"],
        env=env, capture_output=True, text=True, cwd=Path(__file__).parents[1],
    )
    # -q prints a test's progress mark just before the next test's output
    verdicts = re.findall(r"ACCEPTANCE (1[0-3]) [^:\n]+: (\w+)", done.stdout)
    assert [n for n, _ in verdicts] == ["10", "11", "12", "13"], done.stdout
    assert {state for _, state in verdicts} <= {"PASS", "FAIL"}, done.stdout
    # --tb=line: one "<file>:<line>: <exception>" line per failure
    failed = re.findall(r"^\S+\.py:\d+: (.*)$", done.stdout, re.M)
    assert len(failed) == sum(state == "FAIL" for _, state in verdicts), done.stdout
    assert all(re.match(r"AssertionError: criterion 1[0-3] \(", f) for f in failed), failed
    assert done.returncode in (0, 1) and " error" not in done.stdout.splitlines()[-1], done.stdout
