"""Property tests of the series transforms against plain-Python references.

Series are drawn with random gaps (None); the references restate each
transform one quarter at a time, the way it is specified.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlcast.errors import InsufficientDataError, SingularDesignError
from hlcast.regress import design_matrix, lag_scan, ols_fit
from hlcast.timeseries import (
    Quarter,
    QuarterlySeries,
    align,
    read_series_csv,
    shift,
    write_series_csv,
)

SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)

values = st.lists(
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False, width=64)),
    max_size=24,
)
starts = st.integers(min_value=1990 * 4, max_value=2030 * 4).map(Quarter.from_index)


def series(vals, start=Quarter(2000, 1), name="s") -> QuarterlySeries:
    return QuarterlySeries(name=name, start=start, values=vals, unit="u")


@SETTINGS
@given(values, st.integers(min_value=0, max_value=6))
def test_lag_and_diff_commute(vals, k):
    s = series(vals)
    assert s.lag(k).diff() == s.diff().lag(k)


@SETTINGS
@given(st.lists(st.tuples(values, starts), min_size=1, max_size=4))
def test_align_keeps_every_present_value_and_invents_none(cols):
    originals = [series(v, start, name=f"c{i}") for i, (v, start) in enumerate(cols)]
    frame = align(originals)
    for s in originals:
        col = frame.column(s.name)
        assert {q: v for q, v in col.items() if v is not None} == {
            q: v for q, v in s.items() if v is not None
        }


@SETTINGS
@given(values, st.integers(min_value=1, max_value=6))
def test_trailing_mean_matches_reference(vals, window):
    expected = []
    for i in range(len(vals)):
        chunk = vals[max(i - window + 1, 0) : i + 1]
        if i < window - 1 or any(v is None for v in chunk):
            expected.append(None)
        else:
            acc = chunk[0]
            for v in chunk[1:]:
                acc += v  # oldest first
            mean = acc / window
            expected.append(None if math.isnan(mean) else mean)  # inf - inf: no mean
    assert series(vals).trailing_mean(window).values == tuple(expected)


@SETTINGS
@given(values)
def test_forward_fill_matches_reference(vals):
    if not vals or vals[0] is None:
        return
    expected, last = [], None
    for v in vals:
        last = v if v is not None else last
        expected.append(last)
    assert series(vals).forward_fill().values == tuple(expected)


@SETTINGS
@given(values, starts)
def test_values_round_trip(vals, start):
    s = series(vals, start)
    again = QuarterlySeries(name=s.name, start=s.start, values=s.values, unit=s.unit)
    assert again == s
    assert again.values == tuple(None if v is None else float(v) for v in vals)


@SETTINGS
@given(st.lists(st.one_of(st.none(), st.floats(allow_nan=False, width=64)), min_size=1, max_size=24))
def test_csv_round_trip_is_bit_exact(tmp_path_factory, vals):
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    s = series(vals)
    write_series_csv(s, path)
    back = read_series_csv(path, name="s", unit="u")
    assert back == s
    assert [None if v is None else math.copysign(1.0, v) for v in back.values] == [
        None if v is None else math.copysign(1.0, v) for v in vals
    ]


@st.composite
def scan_series(draw, name):
    """A series with gaps, either constant or random, on a power-of-two scale.

    Values are small integers times ``2**e``, so sums and means of a constant
    series are exact and a constant reads as constant to both fits below.
    """
    size = draw(st.integers(min_value=0, max_value=24))
    if draw(st.booleans()):
        vals = [draw(st.integers(min_value=-50, max_value=50))] * size
    else:
        vals = draw(st.lists(st.integers(-1000, 1000), min_size=size, max_size=size))
    gaps = draw(st.sets(st.integers(min_value=0, max_value=23), max_size=6))
    scale = 2.0 ** draw(st.integers(min_value=-8, max_value=20))
    start = Quarter.from_index(2000 * 4 + draw(st.integers(min_value=0, max_value=6)))
    return QuarterlySeries(
        name=name,
        start=start,
        values=[None if i in gaps else v * scale for i, v in enumerate(vals)],
    )


def reference_lag_scan(response, candidate, lags):
    """The lag scan as one ``ols_fit`` per lag: (lag, R-squared or None, n_obs)."""
    merged = align([response, candidate])
    out = []
    for k in lags:
        try:
            fit = ols_fit(design_matrix(merged, response.name, [(candidate.name, k)]))
            out.append((k, fit.r_squared, fit.n_obs))
        except (InsufficientDataError, SingularDesignError):
            y = merged.column(response.name).array
            x = shift(merged.column(candidate.name).array, k)
            out.append((k, None, int((~np.isnan(y) & ~np.isnan(x)).sum())))
    return out


def _constant_warnings(record) -> int:
    return sum(1 for w in record if "constant" in str(w.message))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(scan_series("resp"), scan_series("cand"))
def test_closed_form_lag_scan_matches_ols_fit(resp, cand):
    lags = range(0, 7)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = lag_scan(resp, cand, lags)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = reference_lag_scan(resp, cand, lags)
    assert [(e.lag, e.r_squared is None, e.n_obs) for e in got.entries] == [
        (k, r2 is None, n) for k, r2, n in want
    ]
    for e, (_, r2, _) in zip(got.entries, want):
        if r2 is not None:
            # the reference's 1 - SSR/SST carries absolute rounding near R^2 = 0
            assert e.r_squared == pytest.approx(r2, rel=1e-12, abs=1e-14)
    assert _constant_warnings(got_warnings) == _constant_warnings(want_warnings)
