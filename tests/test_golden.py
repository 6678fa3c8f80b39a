"""Golden values: the full experiment on synthetic seeds 0-4 against frozen numbers.

``tests/golden_values.json`` holds, per seed, the backtest report of the
default experiment (every variant's coefficients, stderrs, stats, gamma,
long-run alphas, train span, metrics and errors) and the lag scan's R-squared
and observation count per lag. Floats must agree to a relative 1e-12; every
other field, and the best lag, must match exactly.

Regenerate only when a change to the numbers is intended::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from hlcast.backtest import HLC, HOUSE_PRICE, SplitSpec, build_features, default_specs, run_grid
from hlcast.regress import lag_scan
from hlcast.synthetic import ScenarioConfig, generate

GOLDEN = Path(__file__).with_name("golden_values.json")
SEEDS = range(5)
QUARTERS = 92
SCAN_LAGS = range(0, 9)
REL = 1e-12


def experiment(seed: int) -> dict:
    data = generate(ScenarioConfig(seed=seed, n_quarters=QUARTERS))
    features = build_features(data.frame, data.params)
    scan = lag_scan(features.column(HOUSE_PRICE), features.column(HLC), SCAN_LAGS)
    report = run_grid(features, default_specs(), SplitSpec())
    return {
        "report": report.to_dict(),
        "lag_scan": {
            "best_lag": scan.best_lag,
            "entries": [
                {"lag": e.lag, "r_squared": e.r_squared, "n_obs": e.n_obs} for e in scan.entries
            ],
        },
    }


def mismatches(got, expected, path: str = "") -> list[str]:
    """Differences between two JSON trees: floats at ``REL``, the rest exactly."""
    if isinstance(expected, float) and isinstance(got, float):
        if math.isclose(got, expected, rel_tol=REL, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {expected!r}"]
    if isinstance(expected, dict) and isinstance(got, dict):
        if list(got) != list(expected):
            return [f"{path}: keys {list(got)} != {list(expected)}"]
        return [m for k in expected for m in mismatches(got[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(got, list):
        if len(got) != len(expected):
            return [f"{path}: length {len(got)} != {len(expected)}"]
        return [
            m for i, (g, e) in enumerate(zip(got, expected)) for m in mismatches(g, e, f"{path}[{i}]")
        ]
    if type(got) is not type(expected) or got != expected:
        return [f"{path}: {got!r} != {expected!r}"]
    return []


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
def test_experiment_matches_golden(golden, seed):
    problems = mismatches(experiment(seed), golden[str(seed)], f"seed{seed}")
    assert not problems, "\n".join(problems[:20])


def test_golden_covers_every_variant(golden):
    for seed in SEEDS:
        variants = golden[str(seed)]["report"]["variants"]
        assert len(variants) == 12
        assert all(v["error"] is None for v in variants)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    doc = {str(seed): experiment(seed) for seed in SEEDS}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
