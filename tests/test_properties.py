"""Property tests of the series transforms against plain-Python references.

Series are drawn with random gaps (None); the references restate each
transform one quarter at a time, the way it is specified.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from hlcast.timeseries import Quarter, QuarterlySeries, align, read_series_csv, write_series_csv

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
