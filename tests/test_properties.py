"""Property tests of the series transforms against plain-Python references.

Series are drawn with random gaps (None); the references restate each
transform one quarter at a time, the way it is specified.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlcast.errors import DomainError, InsufficientDataError, SingularDesignError
from hlcast.lti import HouseholdInputs, LtiParams, hlc, hlc_series
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
# finite values only: a nan or inf cell is a parse error on read
@given(
    st.lists(
        st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1,
        max_size=24,
    )
)
def test_csv_round_trip_is_bit_exact(tmp_path_factory, vals):
    path = tmp_path_factory.mktemp("csv") / "s.csv"
    s = QuarterlySeries(name="s", start=Quarter(2000, 1), values=vals)  # a CSV holds no unit
    write_series_csv(s, path)
    back = read_series_csv(path, name="s")
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


# One quarter of household inputs, None for a gap. Shares 0 and 1 and a rate
# of 0 are drawn often: with cost_rate 0, a rate of 0 is the annuity factor's
# x == 0 limit at share 0 and a DomainError at any other share.
hlc_quarters = st.tuples(
    st.one_of(st.none(), st.floats(min_value=1.0, max_value=1e6)),
    st.one_of(st.none(), st.just(0.0), st.floats(min_value=0.0, max_value=0.25)),
    st.one_of(st.none(), st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
)


@SETTINGS
@given(st.lists(hlc_quarters, min_size=1, max_size=24), st.sampled_from([0.0, 0.025]))
@example([(1e4, 0.0, 0.0), (1e4, 0.05, 1.0), (None, 0.05, 0.5), (2e4, 0.03, 0.4)], 0.0)
@example([(1e4, 0.04, 0.0), (3e4, 0.0, 0.5), (None, 0.0, 1.0)], 0.0)
def test_hlc_series_equals_scalar_hlc(quarters, cost_rate):
    params = LtiParams(cost_rate=cost_rate)
    names = ("income", "interest_rate", "interest_only_share")
    frame = align([series([q[j] for q in quarters], name=c) for j, c in enumerate(names)])
    expected, error = [], None
    for k, inputs in enumerate(quarters):
        if None in inputs:
            expected.append(math.nan)
            continue
        try:
            expected.append(hlc(HouseholdInputs(*inputs), params))
        except DomainError as exc:
            error = f"column 'interest_rate' at {frame.start + k}: {exc}"
            break
    if error is None:
        got = hlc_series(frame, params).array
        assert np.array_equal(got, np.array(expected), equal_nan=True)
    else:
        # the first quarter the scalar code rejects raises its error, named
        # by column and quarter
        with pytest.raises(DomainError) as exc:
            hlc_series(frame, params)
        assert str(exc.value) == error
