"""Metamorphic relations of the whole backtest (build_features + run_grid).

No exact oracle exists for the grid's RMSE and MAE, but these relations must
hold whatever the internals, and they hold bit for bit:

* units: house prices and incomes scaled by 2^k scale every RMSE and MAE by
  2^k (a power of two rescales every float exactly);
* shift: every series relabelled k quarters later, with the cutoff moved
  alike, leaves every result equal;
* no look-ahead: inputs after the cutoff, rescaled, leave every truncated
  fit equal; prices after the cutoff leave every truncated OLS and dynamic
  ECM path equal; and the other inputs leave the capacity paths equal over
  as many holdout quarters as capacity leads;
* woonquote: the housing share of income scales capacity, and so its
  coefficient, but no metric.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcast.backtest import ECM_DIFF_LAG, SplitSpec, build_features, default_specs, run_grid
from hlcast.spec import HLC_LAG, HOUSE_PRICE, INCOME, LtiParams
from hlcast.synthetic import ScenarioConfig, generate
from hlcast.timeseries import Quarter, QuarterlySeries, align

SETTINGS = settings(max_examples=10, derandomize=True, deadline=None)
SEEDS = st.integers(0, 7)
METRICS = ("metrics_all", "metrics_holdout")


def grid(frame, params=LtiParams(), split=SplitSpec()):
    return run_grid(build_features(frame, params), default_specs(), split)


def variants(frame, params=LtiParams(), split=SplitSpec()) -> list[dict]:
    return [v.to_dict() for v in grid(frame, params, split).variants]


def metrics(v: dict) -> list:
    """Every metric block of a variant: both windows, and the alternative path's."""
    alt = v["alt_forecast"] or {}
    return [v[w] for w in METRICS] + [alt.get(w) for w in METRICS]


def frame_of(seed: int):
    return generate(ScenarioConfig(seed=seed)).frame


def rescaled_after_cutoff(frame, draw: int, names):
    """The frame with each named column's values after the default cutoff
    multiplied by uniform draws in [0.5, 1.5)."""
    rng = np.random.default_rng(draw)
    cut = SplitSpec().cutoff + 1 - frame.start_index  # the first holdout position
    columns = []
    for s in frame.columns.values():
        a = s.to_array()
        if s.name in names:
            a[cut:] *= rng.uniform(0.5, 1.5, len(a) - cut)
            if s.unit == "fraction":
                # a share above 1 is rejected; cap only the perturbed cells
                a[cut:] = np.minimum(a[cut:], 1.0)
        columns.append(QuarterlySeries(s.name, s.start, a, s.unit))
    return align(columns)


def holdout(path, h: int) -> np.ndarray:
    """A path's values over the first ``h`` quarters after the default cutoff."""
    first = SplitSpec().cutoff + 1 - path.start_index
    return path.array[first : first + h]


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
    moved = variants(later, split=SplitSpec(split.cutoff + k))
    for base, shifted in zip(variants(frame, split=split), moved, strict=True):
        # the training window's labels move with the data; its length does not
        base_train, shifted_train = base.pop("train"), shifted.pop("train")
        assert base_train["n"] == shifted_train["n"]
        assert base == shifted


@SETTINGS
@given(SEEDS, st.integers(0, 2**32 - 1))
def test_data_after_the_cutoff_never_reaches_a_truncated_fit(seed, draw):
    frame = frame_of(seed)
    perturbed = rescaled_after_cutoff(frame, draw, frame.names())
    kept = ("coefficients", "gamma", "stats", "train", "long_run_alphas", "error")
    for base, moved in zip(variants(frame), variants(perturbed), strict=True):
        if base["regime"] == "truncated":
            assert {f: base[f] for f in kept} == {f: moved[f] for f in kept}, base["name"]


@SETTINGS
@given(SEEDS, st.integers(0, 2**32 - 1))
def test_prices_after_the_cutoff_never_reach_a_truncated_path(seed, draw):
    frame = frame_of(seed)
    base, moved = grid(frame), grid(rescaled_after_cutoff(frame, draw, [HOUSE_PRICE]))
    for b, m in zip(base.variants, moved.variants, strict=True):
        if b.regime == "truncated":
            assert b.forecast_mode in (None, "dynamic")
            assert b.predicted.start_index == m.predicted.start_index, (b.name, b.approach)
            assert np.array_equal(b.predicted.array, m.predicted.array, equal_nan=True)


@SETTINGS
@given(SEEDS, st.integers(0, 2**32 - 1))
def test_the_capacity_lead_keeps_future_inputs_out_of_the_first_holdout_quarters(seed, draw):
    frame = frame_of(seed)
    inputs = [n for n in frame.names() if n != HOUSE_PRICE]
    base, moved = grid(frame), grid(rescaled_after_cutoff(frame, draw, inputs))
    # capacity enters the OLS at lag HLC_LAG and the ECM differenced at lag
    # ECM_DIFF_LAG: the paths hold that many holdout quarters, and then move
    for approach, lead in (("ols", HLC_LAG), ("ecm", ECM_DIFF_LAG)):
        b = base.variant("hlc", approach, "truncated").predicted
        m = moved.variant("hlc", approach, "truncated").predicted
        assert np.array_equal(holdout(b, lead), holdout(m, lead)), approach
        assert holdout(b, lead + 1)[lead] != holdout(m, lead + 1)[lead], approach
        # the benchmark reads its inputs unlagged, so the rescaling reaches it at once
        b = base.variant("benchmark", approach, "truncated").predicted
        m = moved.variant("benchmark", approach, "truncated").predicted
        assert holdout(b, 1)[0] != holdout(m, 1)[0], approach


@SETTINGS
@given(SEEDS, st.sampled_from([-3, -2, -1, 1]))
def test_woonquote_scales_capacity_but_no_metric(seed, k):
    frame = frame_of(seed)
    params = LtiParams()
    scaled = LtiParams(woonquote=math.ldexp(params.woonquote, k))
    for base, moved in zip(variants(frame, params), variants(frame, scaled), strict=True):
        assert base["error"] == moved["error"]
        assert metrics(base) == metrics(moved), (base["name"], k)
