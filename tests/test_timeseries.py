import math

import numpy as np
import pytest
from conftest import value_at

import hlcast.timeseries
from hlcast.errors import DataError, ParseError, SchemaError
from hlcast.timeseries import (
    Frame,
    Quarter,
    QuarterlySeries,
    align,
    atomic_write,
    parse_quarter,
    quarter_label,
    read_frame_csv,
    read_series_csv,
    write_frame_csv,
    write_series_csv,
)


def series(values, start=Quarter(2000, 1), name="s", unit=""):
    return QuarterlySeries(name=name, start=start, values=tuple(values), unit=unit)


class TestQuarter:
    def test_label_pair_roundtrips(self):
        for i in range(40_000):
            label = quarter_label(i)
            assert label == f"{i // 4:04d}Q{i % 4 + 1}"
            assert parse_quarter(label) == i
        assert quarter_label(-1) == "quarter number -1"
        assert quarter_label(40_000) == "quarter number 40000"

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
        assert parse_quarter(text) == expected.index

    @pytest.mark.parametrize("text", ["2008Q5", "2008Q0", "Q1", "1995", "1995-1", "95Q1", ""])
    def test_parse_rejects(self, text):
        with pytest.raises(ParseError):
            parse_quarter(text)

    def test_parse_error_names_token(self):
        with pytest.raises(ParseError, match="2008Q7"):
            parse_quarter("2008Q7")

    def test_str_roundtrip(self):
        for q in [Quarter(1995, 1), Quarter(2008, 2), Quarter(2017, 4), Quarter(999, 4)]:
            assert parse_quarter(str(q)) == q.index

    def test_year_without_a_four_digit_label_rejected(self):
        # 10000Q1 and -001Q4 are labels parse_quarter cannot read back
        with pytest.raises(ValueError, match="year must be in 0..9999, got 10000"):
            Quarter(10000, 1)
        with pytest.raises(ValueError, match="got -1"):
            Quarter.from_index(-1)
        with pytest.raises(ValueError, match="got 10000"):
            Quarter.from_index(Quarter(9999, 4).index + 1)
        assert parse_quarter(str(Quarter(0, 1))) == 0

    @pytest.mark.parametrize(
        "year,quarter,field",
        [
            (2008, 2.0, "quarter"),
            (2008, True, "quarter"),
            (2008, "2", "quarter"),
            (2008.5, 2, "year"),
            (False, 1, "year"),
            (np.float64(2008), 2, "year"),
        ],
    )
    def test_non_integer_field_rejected(self, year, quarter, field):
        # 2008Q2.0 and 2008QTrue would be labels parse_quarter cannot read back
        with pytest.raises(TypeError, match=f"^{field} must be an integer, got "):
            Quarter(year, quarter)

    def test_numpy_integers_stored_as_int(self):
        q = Quarter(np.int64(2008), np.int32(2))
        assert (type(q.year), type(q.quarter)) == (int, int)
        assert q == Quarter(2008, 2) and str(q) == "2008Q2"


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

    def test_leading_gap_stays_missing(self):
        s = series([None, None, 1.0, None]).forward_fill()
        assert s.values == (None, None, 1.0, 1.0)
        for values in ([None, None], []):
            s = series(values)
            assert s.forward_fill() == s

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
        for v, dv, lv in zip(s.values, d.values, l1.values, strict=True):
            if dv is not None and lv is not None:
                assert dv + lv == pytest.approx(v, rel=1e-12)


class TestAlignAndFrame:
    def test_union_of_ranges(self):
        a = series([1.0, 2.0], start=Quarter(2000, 1), name="a")
        b = series([5.0, 6.0], start=Quarter(2000, 3), name="b")
        f = align([a, b])
        last = f.start_index + len(f) - 1
        assert (f.start_index, last) == (parse_quarter("2000Q1"), parse_quarter("2000Q4"))
        assert f.column("a").values == (1.0, 2.0, None, None)
        assert f.column("b").values == (None, None, 5.0, 6.0)

    def test_never_fabricates_values(self):
        rng = np.random.default_rng(2)
        cols = []
        for i in range(4):
            vals = [None if rng.random() < 0.3 else float(v) for v in rng.normal(size=12)]
            start = Quarter.from_index(Quarter(2000, 1).index + int(rng.integers(0, 6)))
            cols.append(series(vals, start=start, name=f"c{i}"))
        f = align(cols)
        originals = {s.name: s for s in cols}
        for name, col in f.columns.items():
            for i, v in enumerate(col.values):
                if v is not None:
                    assert value_at(originals[name], f.start_index + i) == v

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
        span = f.complete_range()
        assert span == (parse_quarter("2000Q3"), parse_quarter("2001Q1"))
        assert [type(q) for q in span] == [int, int]

    def test_complete_range_none(self):
        f = align([series([None, None], name="a")])
        assert f.complete_range() is None

    def test_complete_range_of_a_frame_without_columns(self):
        assert Frame(Quarter(2000, 1).index, {}).complete_range() is None

    @pytest.mark.parametrize(
        "column",
        [series([1.0, 2.0], start=Quarter(2000, 2), name="b"), series([1.0], name="b")],
        ids=["other-start", "other-length"],
    )
    def test_misaligned_column_rejected(self, column):
        columns = {"a": series([1.0, 2.0], name="a"), "b": column}
        with pytest.raises(SchemaError, match="column 'b' is not aligned to the frame index"):
            Frame(Quarter(2000, 1).index, columns)

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

    def test_roundtrip_before_year_1000(self, tmp_path):
        # the year is written with four digits, as the reader requires
        path = tmp_path / "s.csv"
        path.write_text("quarter,value\n0999Q4,1.0\n1000Q1,2.0\n")
        s = read_series_csv(path)
        write_series_csv(s, path)
        assert path.read_text().splitlines()[1] == "0999Q4,1.0"
        back = read_series_csv(path)
        assert back.start == Quarter(999, 4)
        assert back.values == (1.0, 2.0)

    def test_quarter_past_9999q4_is_not_written(self, tmp_path):
        # 10000Q1 is a label no reader takes back, so no file is written
        s = series([1.0, 2.0], start=Quarter(9999, 4))
        with pytest.raises(DataError, match="^quarter number 40000 lies past 9999Q4"):
            write_series_csv(s, tmp_path / "s.csv")
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", " NaN "])
    def test_non_finite_cell_names_location(self, tmp_path, cell):
        # only an empty field is missing; nan/inf are rejected, in frames too
        series_path, frame_path = tmp_path / "s.csv", tmp_path / "f.csv"
        series_path.write_text(f"quarter,value\n2000Q1,1.5\n2000Q2,{cell}\n")
        frame_path.write_text(f"quarter,a,b\n2000Q1,1.5,2.5\n2000Q2,3.5,{cell}\n")
        with pytest.raises(ParseError, match=r"s\.csv:3: not a finite number"):
            read_series_csv(series_path)
        with pytest.raises(ParseError, match=r"f\.csv:3: not a finite number"):
            read_frame_csv(frame_path)

    @pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
    def test_infinite_value_is_not_written(self, tmp_path, value):
        # no reader accepts an infinite cell, so no writer makes one; NaN stays empty
        series_path, frame_path = tmp_path / "s.csv", tmp_path / "f.csv"
        with pytest.raises(
            DataError,
            match=rf"cannot write .*s\.csv: column 'value' at 2000Q2 is not a finite number: "
            rf"{value!r}",
        ):
            write_series_csv(series([1.0, value, 2.0]), series_path)
        frame = align([series([1.0, None, value], name="a"), series([None, value, 4.0], name="b")])
        with pytest.raises(DataError, match=r"f\.csv: column 'b' at 2000Q2") as exc:
            write_frame_csv(frame, frame_path)
        assert exc.value.exit_code == 3
        assert list(tmp_path.iterdir()) == []
        # an earlier file at the path is left as it was
        write_series_csv(series([1.0, None]), series_path)
        before = series_path.read_bytes()
        with pytest.raises(DataError):
            write_series_csv(series([1.0, value]), series_path)
        assert series_path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    def test_non_contiguous_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        for rows, pair in [("2000Q1,1\n2000Q3,2", "2000Q1 followed by 2000Q3"),
                           ("2000Q2,1\n2000Q1,2", "2000Q2 followed by 2000Q1")]:
            path.write_text(f"quarter,value\n{rows}\n")
            with pytest.raises(ParseError, match="contiguous") as exc:
                read_series_csv(path)
            assert str(exc.value) == (
                f"{path}: quarters must be contiguous and ascending; found {pair}"
            )

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
