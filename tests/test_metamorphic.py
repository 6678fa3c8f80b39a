"""Metamorphic relations of the whole backtest (build_features + run_grid).

No exact oracle exists for the grid's RMSE and MAE, but four relations must
hold whatever the internals, and they hold bit for bit:

* units: house prices and incomes scaled by 2^k scale every RMSE and MAE by
  2^k (a power of two rescales every float exactly);
* shift: every series relabelled k quarters later, with the cutoff moved
  alike, leaves every result equal;
* no look-ahead: inputs after the cutoff, rescaled, leave every truncated
  fit equal;
* woonquote: the housing share of income scales capacity, and so its
  coefficient, but no metric.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcast.backtest import SplitSpec, build_features, default_specs, run_grid
from hlcast.spec import HOUSE_PRICE, INCOME, LtiParams
from hlcast.synthetic import ScenarioConfig, generate
from hlcast.timeseries import Quarter, QuarterlySeries, align

SETTINGS = settings(max_examples=10, derandomize=True, deadline=None)
SEEDS = st.integers(0, 7)
METRICS = ("metrics_all", "metrics_holdout")


def variants(frame, params=LtiParams(), split=SplitSpec()) -> list[dict]:
    report = run_grid(build_features(frame, params), default_specs(), split)
    return [v.to_dict() for v in report.variants]


def metrics(v: dict) -> list:
    """Every metric block of a variant: both windows, and the alternative path's."""
    alt = v["alt_forecast"] or {}
    return [v[w] for w in METRICS] + [alt.get(w) for w in METRICS]


def frame_of(seed: int):
    return generate(ScenarioConfig(seed=seed)).frame


@SETTINGS
@given(SEEDS, st.sampled_from([-3, -2, -1, 1, 2, 3]))
def test_scaling_prices_and_incomes_scales_every_error(seed, k):
    frame = frame_of(seed)
    scaled = align(
        s.scale(2.0**k) if s.name in (HOUSE_PRICE, INCOME) else s for s in frame.columns.values()
    )
    for base, moved in zip(variants(frame), variants(scaled), strict=True):
        assert base["error"] == moved["error"]
        for m, n in zip(metrics(base), metrics(moved), strict=True):
            assert (m is None) == (n is None)
            if m is not None:
                assert n["n"] == m["n"]
                assert n["rmse"] == math.ldexp(m["rmse"], k), (base["name"], k)
                assert n["mae"] == math.ldexp(m["mae"], k), (base["name"], k)


@SETTINGS
@given(SEEDS, st.integers(1, 8))
def test_relabelling_quarters_later_changes_no_result(seed, k):
    frame = frame_of(seed)
    later = align(
        QuarterlySeries(s.name, Quarter.from_index(s.start_index + k), s.array, s.unit)
        for s in frame.columns.values()
    )
    split = SplitSpec()
    moved = variants(later, split=SplitSpec(Quarter.from_index(split.cutoff.index + k)))
    for base, shifted in zip(variants(frame, split=split), moved, strict=True):
        # the training window's labels move with the data; its length does not
        base_train, shifted_train = base.pop("train"), shifted.pop("train")
        assert base_train["n"] == shifted_train["n"]
        assert base == shifted


@SETTINGS
@given(SEEDS, st.integers(0, 2**32 - 1))
def test_data_after_the_cutoff_never_reaches_a_truncated_fit(seed, draw):
    frame = frame_of(seed)
    rng = np.random.default_rng(draw)
    cut = SplitSpec().cutoff.index + 1 - frame.start_index  # the first holdout position
    columns = []
    for s in frame.columns.values():
        a = s.to_array()
        a[cut:] *= rng.uniform(0.5, 1.5, len(a) - cut)
        if s.unit == "fraction":
            # a share above 1 is rejected; cap only the perturbed cells
            a[cut:] = np.minimum(a[cut:], 1.0)
        columns.append(QuarterlySeries(s.name, s.start, a, s.unit))
    kept = ("coefficients", "gamma", "stats", "train", "long_run_alphas", "error")
    for base, perturbed in zip(variants(frame), variants(align(columns)), strict=True):
        if base["regime"] == "truncated":
            assert {f: base[f] for f in kept} == {f: perturbed[f] for f in kept}, base["name"]


@SETTINGS
@given(SEEDS, st.sampled_from([-3, -2, -1, 1]))
def test_woonquote_scales_capacity_but_no_metric(seed, k):
    frame = frame_of(seed)
    params = LtiParams()
    scaled = LtiParams(woonquote=math.ldexp(params.woonquote, k))
    for base, moved in zip(variants(frame, params), variants(frame, scaled), strict=True):
        assert base["error"] == moved["error"]
        assert metrics(base) == metrics(moved), (base["name"], k)
