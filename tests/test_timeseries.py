import math

import numpy as np
import pytest

import hlcast.timeseries
from hlcast.errors import DataError, InsufficientDataError, ParseError, SchemaError
from hlcast.timeseries import (
    Frame,
    Quarter,
    QuarterlySeries,
    align,
    atomic_write,
    interpolate_yearly_to_quarterly,
    parse_quarter,
    read_frame_csv,
    read_series_csv,
    write_frame_csv,
    write_series_csv,
)


def series(values, start=Quarter(2000, 1), name="s", unit=""):
    return QuarterlySeries(name=name, start=start, values=tuple(values), unit=unit)


class TestQuarter:
    def test_ordering(self):
        assert Quarter(1995, 1) < Quarter(1995, 2) < Quarter(1996, 1)
        assert Quarter(2008, 2) == Quarter(2008, 2)
        assert not Quarter(2009, 1) < Quarter(2008, 4)

    def test_successor_wraps_year(self):
        assert Quarter(1999, 4) + 1 == Quarter(2000, 1)
        assert Quarter(2000, 1) - 1 == Quarter(1999, 4)

    def test_arithmetic_roundtrip(self):
        q = Quarter(2003, 3)
        for n in range(-10, 11):
            assert (q + n) - q == n

    def test_invalid_quarter(self):
        with pytest.raises(ValueError):
            Quarter(2000, 5)
        with pytest.raises(ValueError):
            Quarter(2000, 0)

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1995Q1", Quarter(1995, 1)),
            ("2008-Q2", Quarter(2008, 2)),
            (" 2017Q4 ", Quarter(2017, 4)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_quarter(text) == expected

    @pytest.mark.parametrize("text", ["2008Q5", "2008Q0", "Q1", "1995", "1995-1", "95Q1", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError):
            parse_quarter(text)

    def test_parse_error_names_token(self):
        with pytest.raises(ParseError, match="2008Q7"):
            parse_quarter("2008Q7")

    def test_str_roundtrip(self):
        for q in [Quarter(1995, 1), Quarter(2008, 2), Quarter(2017, 4)]:
            assert parse_quarter(str(q)) == q


class TestInterpolation:
    def test_two_years_anchor_q4(self):
        s = interpolate_yearly_to_quarterly({1997: 100.0, 1998: 108.0})
        assert s.start == Quarter(1997, 4)
        assert s.get(Quarter(1997, 4)) == 100.0
        assert s.get(Quarter(1998, 1)) == 102.0
        assert s.get(Quarter(1998, 2)) == 104.0
        assert s.get(Quarter(1998, 3)) == 106.0
        assert s.get(Quarter(1998, 4)) == 108.0
        assert len(s) == 5

    def test_constant_years(self):
        s = interpolate_yearly_to_quarterly({1997: 100.0, 1998: 100.0})
        assert all(v == 100.0 for v in s.values)

    def test_price_level_segment(self):
        # Hand-interpolated: step (97222 - 89792) / 4 = 1857.5 per quarter.
        s = interpolate_yearly_to_quarterly({1995: 89792.0, 1996: 97222.0})
        assert s.get(Quarter(1996, 1)) == pytest.approx(91649.5)
        assert s.get(Quarter(1996, 2)) == pytest.approx(93507.0)
        assert s.get(Quarter(1996, 3)) == pytest.approx(95364.5)

    def test_gap_year_spans_eight_quarters(self):
        s = interpolate_yearly_to_quarterly({1997: 100.0, 1999: 116.0})
        assert len(s) == 9
        assert s.get(Quarter(1998, 4)) == pytest.approx(108.0)
        assert s.get(Quarter(1998, 2)) == pytest.approx(104.0)

    def test_anchor_quarter_choice(self):
        s = interpolate_yearly_to_quarterly({2000: 1.0, 2001: 5.0}, anchor_quarter=2)
        assert s.start == Quarter(2000, 2)
        assert s.get(Quarter(2001, 2)) == 5.0
        assert s.get(Quarter(2000, 4)) == pytest.approx(3.0)

    def test_anchors_exact_no_drift(self):
        yearly = {y: 89.792 * 1.0637 ** (y - 1995) for y in range(1995, 2005)}
        s = interpolate_yearly_to_quarterly(yearly)
        for y, v in yearly.items():
            assert s.get(Quarter(y, 4)) == v  # bit-exact at anchors

    def test_requires_two_values(self):
        with pytest.raises(InsufficientDataError):
            interpolate_yearly_to_quarterly({1997: 100.0})

    def test_bad_anchor(self):
        with pytest.raises(ValueError):
            interpolate_yearly_to_quarterly({1997: 1.0, 1998: 2.0}, anchor_quarter=5)


class TestTrailingMean:
    def test_constant_series(self):
        s = series([3.0] * 8).trailing_mean(4)
        assert s.values[:3] == (None, None, None)
        assert all(v == 3.0 for v in s.values[3:])

    def test_examples(self):
        assert series([1, 2, 3, 4]).trailing_mean(4).values[-1] == 2.5
        assert series([1, 2, 3, 4, 5]).trailing_mean(4).values[-1] == 3.5

    def test_window_one_is_identity(self):
        s = series([1.0, None, 3.0, 4.0])
        assert s.trailing_mean(1) == s

    def test_missing_poisons_window(self):
        s = series([1.0, None, 3.0, 4.0, 5.0, 6.0]).trailing_mean(2)
        assert s.values == (None, None, None, 3.5, 4.5, 5.5)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            series([1.0]).trailing_mean(0)

    def test_unit_carried(self):
        assert series([1.0, 2.0], unit="eur").trailing_mean(2).unit == "eur"


class TestForwardFill:
    def test_fills_gaps(self):
        s = series([1.0, None, None, 2.0]).forward_fill()
        assert s.values == (1.0, 1.0, 1.0, 2.0)

    def test_leading_gap_is_error(self):
        with pytest.raises(DataError):
            series([None, 1.0]).forward_fill()

    def test_identity_when_complete(self):
        s = series([1.0, 2.0, 3.0])
        assert s.forward_fill() == s


class TestLagDiff:
    def test_lag_zero_identity(self):
        s = series([1.0, 2.0, 3.0])
        assert s.lag(0) == s

    def test_lag_shift(self):
        assert series([1.0, 2.0, 3.0]).lag(1).values == (None, 1.0, 2.0)

    def test_lag_beyond_length(self):
        assert series([1.0, 2.0]).lag(5).values == (None, None)

    def test_lag_composes(self):
        s = series([float(v) for v in range(10)])
        assert s.lag(2).lag(3) == s.lag(5)

    def test_lag_negative_rejected(self):
        with pytest.raises(ValueError):
            series([1.0]).lag(-1)

    def test_diff_constant_is_zero(self):
        s = series([5.0] * 4).diff()
        assert s.values == (None, 0.0, 0.0, 0.0)

    def test_diff_example(self):
        assert series([1.0, 3.0, 6.0]).diff().values == (None, 2.0, 3.0)

    def test_diff_lag_commute(self):
        rng = np.random.default_rng(0)
        vals = [None if rng.random() < 0.2 else float(v) for v in rng.normal(size=30)]
        s = series(vals)
        assert s.lag(1).diff() == s.diff().lag(1)

    def test_diff_plus_lag_recovers(self):
        rng = np.random.default_rng(1)
        s = series([float(v) for v in rng.normal(size=25)])
        d, l1 = s.diff(), s.lag(1)
        for q in s.quarters():
            dv, lv = d.get(q), l1.get(q)
            if dv is not None and lv is not None:
                assert dv + lv == pytest.approx(s.get(q), rel=1e-12)


class TestAlignAndFrame:
    def test_union_of_ranges(self):
        a = series([1.0, 2.0], start=Quarter(2000, 1), name="a")
        b = series([5.0, 6.0], start=Quarter(2000, 3), name="b")
        f = align([a, b])
        assert f.start == Quarter(2000, 1) and f.end == Quarter(2000, 4)
        assert f.column("a").values == (1.0, 2.0, None, None)
        assert f.column("b").values == (None, None, 5.0, 6.0)

    def test_never_fabricates_values(self):
        rng = np.random.default_rng(2)
        cols = []
        for i in range(4):
            vals = [None if rng.random() < 0.3 else float(v) for v in rng.normal(size=12)]
            cols.append(series(vals, start=Quarter(2000, 1) + int(rng.integers(0, 6)), name=f"c{i}"))
        f = align(cols)
        originals = {s.name: s for s in cols}
        for name, col in f.columns.items():
            for q, v in col.items():
                if v is not None:
                    assert originals[name].get(q) == v

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            align([series([1.0], name="x"), series([2.0], name="x")])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            align([])

    def test_complete_range_longest_run(self):
        a = series([1.0, None, 1.0, 1.0, 1.0, None], name="a")
        b = series([1.0, 1.0, 1.0, 1.0, 1.0, 1.0], name="b")
        f = align([a, b])
        assert f.complete_range() == (Quarter(2000, 3), Quarter(2001, 1))

    def test_complete_range_none(self):
        f = align([series([None, None], name="a")])
        assert f.complete_range() is None

    def test_column_missing_is_schema_error(self):
        f = align([series([1.0], name="a")])
        with pytest.raises(SchemaError, match="nope"):
            f.column("nope")

    def test_scale(self):
        s = series([1.0, None, 3.0], unit="eur").scale(2.0)
        assert s.values == (2.0, None, 6.0)
        assert s.unit == "eur"


class TestCsv:
    def test_series_roundtrip(self, tmp_path):
        s = series([89792.0, None, 91000.5, -2.25e-3], start=Quarter(1995, 1), name="hp")
        path = tmp_path / "hp.csv"
        write_series_csv(s, path)
        back = read_series_csv(path)
        assert back.name == "hp"
        assert back.start == s.start
        assert back.values == s.values

    def test_roundtrip_random_values_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        vals = [None if rng.random() < 0.25 else float(v) for v in rng.normal(size=40) * 1e5]
        s = series(vals, name="r")
        path = tmp_path / "r.csv"
        write_series_csv(s, path)
        assert read_series_csv(path).values == s.values

    def test_header_and_format(self, tmp_path):
        path = tmp_path / "s.csv"
        write_series_csv(series([89792.0], start=Quarter(1995, 1)), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "quarter,value"
        assert lines[1] == "1995Q1,89792.0"

    def test_empty_field_is_missing(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("quarter,value\n2000Q1,1.5\n2000Q2,\n2000Q3,2.5\n")
        assert read_series_csv(path).values == (1.5, None, 2.5)

    def test_byte_order_mark_accepted(self, tmp_path):
        series_path, frame_path = tmp_path / "s.csv", tmp_path / "f.csv"
        series_path.write_bytes(b"\xef\xbb\xbfquarter,value\n2000Q1,1.5\n2000Q2,\n")
        frame_path.write_bytes(b"\xef\xbb\xbfquarter,a\n2000Q1,2.5\n")
        assert read_series_csv(series_path).values == (1.5, None)
        assert read_frame_csv(frame_path).column("a").values == (2.5,)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("time,value\n2000Q1,1\n")
        with pytest.raises(ParseError, match="header"):
            read_series_csv(path)

    def test_bad_value_names_location(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("quarter,value\n2000Q1,abc\n")
        with pytest.raises(ParseError, match=r"b\.csv:2"):
            read_series_csv(path)

    def test_non_contiguous_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("quarter,value\n2000Q1,1\n2000Q3,2\n")
        with pytest.raises(ParseError, match="contiguous"):
            read_series_csv(path)

    def test_frame_roundtrip(self, tmp_path):
        f = align(
            [
                series([1.0, None, 3.0], name="a"),
                series([4.0, 5.0], start=Quarter(2000, 2), name="b"),
            ]
        )
        path = tmp_path / "f.csv"
        write_frame_csv(f, path)
        back = read_frame_csv(path)
        assert back.names() == f.names()
        for name in f.names():
            assert back.column(name).values == f.column(name).values
        assert path.read_text().splitlines()[0] == "quarter,a,b"


class TestAtomicWrite:
    def frame(self, n=8):
        return align([series([float(i) for i in range(n)], name="a"), series([1.5] * n, name="b")])

    def fail_after(self, monkeypatch, calls):
        """Make the CSV writer raise part-way through its rows."""
        real, seen = hlcast.timeseries.format_value, []

        def flaky(v):
            seen.append(v)
            if len(seen) > calls:
                raise RuntimeError("interrupted")
            return real(v)

        monkeypatch.setattr(hlcast.timeseries, "format_value", flaky)

    def test_failed_write_keeps_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "features.csv"
        write_frame_csv(self.frame(3), path)
        before = path.read_bytes()
        self.fail_after(monkeypatch, 5)
        with pytest.raises(RuntimeError, match="interrupted"):
            write_frame_csv(self.frame(), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        self.fail_after(monkeypatch, 5)
        with pytest.raises(RuntimeError):
            write_frame_csv(self.frame(), tmp_path / "features.csv")
        assert list(tmp_path.iterdir()) == []

    def test_completed_write_replaces(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old")
        with atomic_write(path) as fh:
            fh.write("new")
            assert path.read_text() == "old"
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]

    def test_os_error_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot write"):
            write_frame_csv(self.frame(), tmp_path / "missing" / "features.csv")
