"""Shared pieces of the benchmark: paths, inputs, correctness checks, statistics.

Inputs come from a fixed pool of generator seeds so that every input has
frozen reference values in ``reference.json``; the benchmark's ``--seed``
chooses which pool seeds a run uses and in which order.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"

POOL_SIZE = 32
LIBRARY_QUARTERS = {"paper92": 92}
# Lags scanned by one library experiment.
SCAN_LAGS = range(0, 9)
# The CLI workload's second backtest moves the cutoff to this quarter.
RERUN_CUTOFF = "2006Q4"
DEFAULT_CUTOFF = "2008Q2"

# Relative tolerance of every RMSE/MAE against its frozen reference. A wrong
# coefficient moves these by far more; a refactor that only reorders float
# operations (planned tolerance 1e-12) stays well inside.
RTOL = 1e-9
SLOPE_RTOL = 0.05
MIN_R2 = 0.95

# The benchmark pins BLAS to one thread: one caller in one process, and
# small matrices, on a machine shared with other work.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class SourceMissing(RuntimeError):
    """The checkout has no ``src/hlcast`` to benchmark."""


def use_checkout_source() -> None:
    """Make ``import hlcast`` load this checkout's ``src`` and nothing else."""
    if not (SRC / "hlcast" / "__init__.py").is_file():
        raise SourceMissing(f"no hlcast package under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ.update(THREAD_ENV)
    import hlcast

    if Path(hlcast.__file__).resolve().parent != (SRC / "hlcast").resolve():
        raise SourceMissing(f"hlcast imported from {hlcast.__file__}, not from {SRC}")


def child_env() -> dict:
    """Environment of every program subprocess: checkout source, pinned BLAS."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def pool_seeds(seed: int, k: int) -> list[int]:
    """The ``k`` generator seeds a run with benchmark seed ``seed`` uses, in order."""
    return random.Random(seed).sample(range(POOL_SIZE), k)


def library_input(pool_seed: int, n_quarters: int):
    """Generated scenario whose ``ltv`` is kept only in Q1 of each year.

    DNB reports loan-to-value yearly, so ``forward_fill`` has gaps to fill.
    Q1 is kept because ``forward_fill`` rejects a leading gap.
    """
    from hlcast.backtest import LTV
    from hlcast.synthetic import ScenarioConfig, generate
    from hlcast.timeseries import QuarterlySeries, align

    data = generate(ScenarioConfig(seed=pool_seed, n_quarters=n_quarters))
    frame = data.frame
    ltv = frame.column(LTV)
    yearly = QuarterlySeries(
        name=ltv.name,
        start=ltv.start,
        values=tuple(v if q.quarter == 1 else None for q, v in ltv.items()),
        unit=ltv.unit,
    )
    columns = [yearly if n == LTV else frame.column(n) for n in frame.names()]
    return data, align(columns)


# -- correctness --------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def variant_key(v: dict) -> str:
    return f"{v['name']}/{v['approach']}/{v['regime']}"


def error_metrics(doc: dict) -> dict[str, list]:
    """RMSE and MAE of every variant in a report document, by variant key."""
    out = {}
    for v in doc["variants"]:
        row = []
        for window in ("metrics_all", "metrics_holdout"):
            m = v.get(window)
            row += [m["rmse"], m["mae"]] if m else [None, None]
        out[variant_key(v)] = row
    return out


def check_report(doc: dict, truth: dict, reference: dict) -> list[str]:
    """Problems with one backtest report; an empty list means it is correct."""
    problems = []
    failed = [f"{variant_key(v)}: {v['error']}" for v in doc["variants"] if v.get("error")]
    if len(doc["variants"]) != 12 or failed:
        problems.append(f"{len(doc['variants'])} variants, failed: {failed}")
        return problems
    hlc_ols = next(v for v in doc["variants"] if variant_key(v) == "hlc/ols/full")
    slope = hlc_ols["coefficients"][f"hlc_lag{truth['hlc_lag']}"]["estimate"]
    if not math.isclose(slope, truth["price_slope"], rel_tol=SLOPE_RTOL):
        problems.append(f"hlc/ols/full slope {slope} not within 5% of {truth['price_slope']}")
    if not hlc_ols["stats"]["r2"] > MIN_R2:
        problems.append(f"hlc/ols/full R^2 {hlc_ols['stats']['r2']} <= {MIN_R2}")
    got = error_metrics(doc)
    if set(got) != set(reference):
        problems.append(f"variants {sorted(got)} differ from reference {sorted(reference)}")
        return problems
    for key, expected in reference.items():
        for label, g, e in zip(("rmse_all", "mae_all", "rmse_holdout", "mae_holdout"),
                               got[key], expected):
            if (g is None) != (e is None) or (
                e is not None and not math.isclose(g, e, rel_tol=RTOL)
            ):
                problems.append(f"{key} {label} {g!r} != reference {e!r} (rtol {RTOL})")
    return problems


def best_lag_from_csv(text: str) -> int | None:
    """Best lag of a ``lag,r_squared,n_obs`` file, chosen as ``LagScanResult.best_lag``."""
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    usable = [(float(r2), -int(lag)) for lag, r2, _ in rows if r2]
    return -max(usable)[1] if usable else None


class CountLedger:
    """Exact counts seen per input; a count that does not repeat is a failure."""

    def __init__(self) -> None:
        self.first: dict = {}

    def check(self, key, counts: dict) -> list[str]:
        expected = self.first.setdefault(key, dict(counts))
        return [
            f"count {name} for {key}: {counts.get(name)} != {value} seen before"
            for name, value in expected.items()
            if counts.get(name) != value
        ]


# -- statistics ---------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value.

    The percentile is the share of samples at or below the value. With ten
    samples or fewer no such percentile exists and the minimum is returned.
    """
    s = sorted(samples)
    i = max(len(s) - 11, 0)
    return (100.0 * (i + 1) / len(s), s[i])


def summary(samples: list[float]) -> dict:
    """Median and tail of a list of timings, with the sample count."""
    pct, value = tail(samples)
    return {"p50": statistics.median(samples), "tail": value, "tail_pct": pct, "n": len(samples)}


def peak_rss_mb(maxrss_kb: int) -> float:
    return maxrss_kb / 1024.0

