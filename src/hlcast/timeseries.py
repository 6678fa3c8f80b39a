"""Quarterly time-series containers and data-preparation transforms.

Everything downstream works on two immutable containers: a
:class:`QuarterlySeries` (one named variable observed quarterly) and a
:class:`Frame` (several series aligned to a shared quarterly index).
Transforms never mutate; they return new values.

Data model: a series holds a read-only float64 ``array`` (NaN marks a
missing quarter) and the quarter number, 4 × year + quarter − 1, of its
first value, ``start_index``. Transforms are array slicing and masking.
A quarter is a number in code: :func:`parse_quarter` reads a label and
:func:`quarter_label` writes one; only the series constructor's ``start=``,
the ``.start`` property and ``items()`` take or give a :class:`Quarter`.
``values`` is a tuple view with ``None`` for missing quarters, for callers
and tests.

CSV conventions: one file per series with header ``quarter,value`` and rows
like ``1995Q1,89792``; an empty value field marks a missing observation,
and a ``nan`` or ``inf`` cell is a parse error. Writing an infinite value is
an error too, so every file written here reads back.
Frames export as ``quarter,<col1>,<col2>,...``. CSV is UTF-8 (a leading
byte-order mark is accepted on read), comma delimited, ``.`` decimal
separator; :func:`write_csv` quotes a cell holding a comma, quote or newline.
:func:`atomic_write` writes every file, so no reader sees a partial one.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import re
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from ._numpy import np
from .errors import DataError, ParseError, Record, SchemaError, _integer, quote

_QUARTER_RE = re.compile(r"^(\d{4})-?Q(\d)$", re.ASCII)
# Quarter numbers 0..LABELLED - 1, 0000Q1..9999Q4, have a four-digit label.
LABELLED = 40_000


class Quarter(Record):
    """A calendar quarter's label; quarter arithmetic is integer arithmetic on quarter numbers."""

    __slots__ = ("year", "quarter")

    def __init__(self, year: int, quarter: int) -> None:
        if type(year) is not int or type(quarter) is not int:
            year, quarter = _integer("year", year), _integer("quarter", quarter)
        # four digits, so that parse_quarter reads every label back
        if not 0 <= year <= 9999:
            raise ValueError(f"year must be in 0..9999, got {year}")
        if not 1 <= quarter <= 4:
            raise ValueError(f"quarter must be in 1..4, got {quarter}")
        self._set(year, quarter)

    @classmethod
    def from_index(cls, index: int) -> Quarter:
        """Inverse of :attr:`index`: quarter number ``index`` since year 0."""
        index = int(index)
        return cls(index // 4, index % 4 + 1)

    @property
    def index(self) -> int:
        return self.year * 4 + self.quarter - 1

    def __str__(self) -> str:
        return quarter_label(self.index)


def quarter_label(index: int) -> str:
    """``YYYYQn`` of quarter number ``index``, the inverse of :func:`parse_quarter`.

    Never raises: a number outside 0000Q1..9999Q4 prints as ``quarter number N``.
    """
    in_range = 0 <= index < LABELLED
    return f"{index // 4:04d}Q{index % 4 + 1}" if in_range else f"quarter number {index}"


def parse_quarter(text: str) -> int:
    """The quarter number, 4 × year + quarter − 1, of ``YYYYQn`` or ``YYYY-Qn``.

    Raises:
        ParseError: if the text is malformed or n is outside 1..4.
    """
    m = _QUARTER_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a quarter label: {quote(text)} (expected YYYYQn or YYYY-Qn)")
    q = int(m.group(2))
    if not 1 <= q <= 4:
        raise ParseError(f"quarter out of range in {quote(text)}: Q{q}")
    return int(m.group(1)) * 4 + q - 1


def shift(a: np.ndarray, k: int) -> np.ndarray:
    """``a`` moved ``k >= 0`` positions later: result[i] = a[i - k], NaN before."""
    out = np.full(len(a), np.nan)
    if k < len(a):
        out[k:] = a[: len(a) - k]
    return out


class QuarterlySeries:
    """A contiguous quarterly series with NaN marking missing quarters.

    ``array[i]`` is the observation at ``start_index + i``. ``values`` may be any
    sequence of numbers with ``None`` (or NaN) for missing quarters. ``unit``
    is free-form metadata ("eur", "fraction", ...) carried through every
    transform.
    """

    __slots__ = ("name", "start_index", "array", "unit")

    def __init__(self, name: str, start: Quarter, values: Iterable, unit: str = "") -> None:
        if not isinstance(values, np.ndarray):
            values = [np.nan if v is None else float(v) for v in values]
        self.name, self.start_index, self.unit = name, start.index, unit
        self.array = np.array(values, dtype=float)
        self.array.flags.writeable = False

    @classmethod
    def _from_array(
        cls, name: str, start_index: int, array: np.ndarray, unit: str = ""
    ) -> QuarterlySeries:
        """Wrap a float array without copying (package use only).

        The series takes ownership: the array is marked read-only and must
        not be written through any other view afterwards.
        """
        s = cls.__new__(cls)
        s.array = np.asarray(array, dtype=float)
        s.array.flags.writeable = False
        s.name, s.start_index, s.unit = name, int(start_index), unit
        return s

    def _with_array(self, array: np.ndarray, start_index: int | None = None) -> QuarterlySeries:
        """This series (name, unit) over new values; ``start_index`` defaults to its own."""
        i0 = self.start_index if start_index is None else start_index
        return QuarterlySeries._from_array(self.name, i0, array, self.unit)

    # -- basic access -------------------------------------------------------

    @property
    def start(self) -> Quarter:
        return Quarter.from_index(self.start_index)

    @property
    def values(self) -> tuple[float | None, ...]:
        """The values as a tuple, ``None`` for missing quarters."""
        return tuple(None if v != v else v for v in self.array.tolist())

    def __len__(self) -> int:
        return len(self.array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuarterlySeries):
            return NotImplemented
        return (self.name, self.start_index, self.unit) == (
            other.name, other.start_index, other.unit
        ) and np.array_equal(self.array, other.array, equal_nan=True)

    def __repr__(self) -> str:
        label = quarter_label(self.start_index)
        return f"QuarterlySeries({self.name!r}, {label}, {self.values!r}, {self.unit!r})"

    def items(self) -> Iterator[tuple[Quarter, float | None]]:
        return ((Quarter.from_index(self.start_index + i), v) for i, v in enumerate(self.values))

    def to_array(self) -> np.ndarray:
        """Values as a new float array with NaN for missing."""
        return self.array.copy()

    def rename(self, name: str) -> QuarterlySeries:
        return QuarterlySeries._from_array(name, self.start_index, self.array, self.unit)

    def scale(self, factor: float) -> QuarterlySeries:
        """Multiply all present values by ``factor``."""
        return self._with_array(self.array * factor)

    # -- transforms ---------------------------------------------------------

    def trailing_mean(self, window: int) -> QuarterlySeries:
        """Arithmetic mean of the last ``window`` quarters, trailing.

        The first ``window - 1`` positions, and any position whose window
        contains a missing value, come out missing. A trailing (never
        centered) window avoids look-ahead when the result feeds forecasts.
        Each window is summed oldest value first.
        """
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        a, n = self.array, len(self)
        out = np.full(n, np.nan)
        if n >= window:
            acc = a[: n - window + 1].copy()
            # a sum past the float range is inf, as in plain float arithmetic
            with np.errstate(over="ignore"):
                for j in range(1, window):
                    acc += a[j : n - window + 1 + j]
            out[window - 1 :] = acc / window
        return self._with_array(out)

    def forward_fill(self) -> QuarterlySeries:
        """Fill each missing value from the most recent present one; a leading gap stays missing."""
        a = self.array
        source = np.where(np.isnan(a), 0, np.arange(len(a)))
        return self._with_array(a[np.maximum.accumulate(source)])

    def lag(self, k: int) -> QuarterlySeries:
        """Shift values ``k`` quarters forward in time: result[t] = self[t-k]."""
        if k < 0:
            raise ValueError(f"lag must be >= 0, got {k}")
        return self if k == 0 else self._with_array(shift(self.array, k))

    def diff(self) -> QuarterlySeries:
        """First difference: result[t] = self[t] - self[t-1]."""
        out = np.full(len(self), np.nan)
        out[1:] = self.array[1:] - self.array[:-1]
        return self._with_array(out)


class Frame:
    """Named quarterly series aligned to one shared index range."""

    __slots__ = ("start_index", "columns")

    def __init__(self, start_index: int, columns: dict[str, QuarterlySeries] | None = None) -> None:
        self.start_index = start_index
        self.columns = {} if columns is None else columns
        n = len(self)
        for name, s in self.columns.items():
            if s.name != name or s.start_index != self.start_index or len(s) != n:
                raise SchemaError(f"column {name!r} is not aligned to the frame index")

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.start_index == other.start_index and self.columns == other.columns

    def __repr__(self) -> str:
        return f"Frame({quarter_label(self.start_index)}, {self.columns!r})"

    def names(self) -> list[str]:
        return list(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self.columns

    def column(self, name: str) -> QuarterlySeries:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(f"frame has no column {name!r}") from None

    def require(self, *names: str) -> None:
        missing = [n for n in names if n not in self.columns]
        if missing:
            raise SchemaError(f"frame is missing required column(s): {', '.join(missing)}")

    def complete_range(self) -> tuple[int, int] | None:
        """The first and last quarter numbers of the longest contiguous run of
        quarters where every column is present.

        This is the natural regression sample; returns None when no quarter
        has all columns observed. Of equally long runs the earliest wins.
        """
        if not len(self):
            return None
        present = ~np.isnan(np.vstack([s.array for s in self.columns.values()])).any(axis=0)
        edges = np.diff(np.concatenate(([0], present.astype(np.int8), [0])))
        starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
        if not len(starts):
            return None
        k = int(np.argmax(stops - starts))
        return self.start_index + int(starts[k]), self.start_index + int(stops[k]) - 1


def align(columns: Iterable[QuarterlySeries]) -> Frame:
    """Align series onto the union of their index ranges.

    Quarters a series does not cover become missing; no values are
    fabricated. Duplicate column names are an error.
    """
    cols = list(columns)
    if not cols:
        raise SchemaError("align requires at least one column")
    names = [s.name for s in cols]
    if len(set(names)) != len(names):
        dupes = {n for n in names if names.count(n) > 1}
        raise SchemaError(f"duplicate column name(s): {', '.join(sorted(dupes))}")
    i0 = min(s.start_index for s in cols)
    n = max(s.start_index + len(s) for s in cols) - i0
    aligned = {}
    for s in cols:
        if s.start_index == i0 and len(s) == n:
            aligned[s.name] = s
        else:
            out = np.full(n, np.nan)
            offset = s.start_index - i0
            out[offset : offset + len(s)] = s.array
            aligned[s.name] = s._with_array(out, i0)
    return Frame(i0, aligned)


# -- CSV input/output -------------------------------------------------------


def format_value(v: float) -> str:
    """A CSV cell: the shortest round-tripping repr, empty for NaN."""
    return "" if v != v else repr(v)


def _parse_value(text: str, path: Path, line: int) -> float:
    text = text.strip()
    if text == "":
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{path}:{line}: not a number: {quote(text)}") from None
    if not math.isfinite(value):
        # only an empty field is missing; nan and inf are not observations
        raise ParseError(f"{path}:{line}: not a finite number: {quote(text)}")
    return value


def _read_table(path: Path, expected: str, names_of) -> tuple[list[str], int, list[np.ndarray]]:
    """Column names, first quarter number and value arrays of a ``quarter,...`` CSV file.

    ``names_of`` maps the header fields to the value column names, or to None
    when the header is not ``expected``. Rows must be contiguous quarters;
    an empty cell is NaN.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            names = None if header is None else names_of([h.strip() for h in header])
            if names is None:
                raise ParseError(f"{path}:1: expected header {expected!r}, got {quote(header)}")
            quarters: list[int] = []
            data: list[list[float]] = [[] for _ in names]
            for lineno, row in enumerate(reader, start=2):
                if not row or all(c.strip() == "" for c in row):
                    continue
                if len(row) != len(names) + 1:
                    raise ParseError(
                        f"{path}:{lineno}: expected {len(names) + 1} fields, got {len(row)}"
                    )
                try:
                    quarters.append(parse_quarter(row[0]))
                except ParseError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
                for column, cell in zip(data, row[1:]):
                    column.append(_parse_value(cell, path, lineno))
        except UnicodeDecodeError as exc:  # decoded a block at a time: no line to name
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:  # a cell over the field limit (process-wide, so not raised)
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    if not quarters:
        raise DataError(f"{path}: no data rows")
    for prev, cur in zip(quarters, quarters[1:]):
        if cur - prev != 1:
            raise ParseError(
                f"{path}: quarters must be contiguous and ascending; "
                f"found {quarter_label(prev)} followed by {quarter_label(cur)}"
            )
    return names, quarters[0], [np.array(column) for column in data]


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """Open ``path`` for UTF-8 text writing, all or nothing.

    The text goes to a temporary file beside ``path`` that replaces it only
    when the block completes, so a write that fails part-way leaves any
    earlier file intact and no partial file behind. ``OSError`` is raised
    as :class:`DataError`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", newline="", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` through :func:`atomic_write`."""
    with atomic_write(path) as fh:
        fh.write(text)


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    """Write ``header`` and ``rows`` as CSV via :func:`atomic_write`: hlcast's one CSV writer."""
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def quarter_rows(frame: Frame) -> Iterator[list[str]]:
    """CSV rows of ``frame``: the quarter label, then each column's :func:`format_value`.

    A quarter past 9999Q4 has no label that reads back, so it is an error.
    """
    i0, last = frame.start_index, frame.start_index + len(frame) - 1
    if last >= LABELLED:
        raise DataError(f"{quarter_label(last)} lies past 9999Q4, the last labelled quarter")
    for i, row in enumerate(zip(*(s.array.tolist() for s in frame.columns.values()))):
        yield [quarter_label(i0 + i)] + [format_value(v) for v in row]


def _write_table(path: str | Path, header: list[str], frame: Frame) -> None:
    """Write ``quarter,...`` rows; an infinite cell, which no reader accepts, is an error."""
    columns = [s.array for s in frame.columns.values()]
    infinite = [
        (int(np.argmax(np.isinf(c))), j) for j, c in enumerate(columns) if np.isinf(c).any()
    ]
    if infinite:
        i, j = min(infinite)  # the first quarter, then the first column
        q = quarter_label(frame.start_index + i)
        raise DataError(
            f"cannot write {path}: column {header[j + 1]!r} at {q} is not a finite number: "
            f"{float(columns[j][i])!r}"
        )
    write_csv(path, header, quarter_rows(frame))


def read_series_csv(path: str | Path, name: str | None = None) -> QuarterlySeries:
    """Read one series from a ``quarter,value`` CSV file; the name defaults to the file stem."""
    path = Path(path)
    _, start, (values,) = _read_table(
        path,
        "quarter,value",
        lambda h: ["value"] if [f.lower() for f in h[:2]] == ["quarter", "value"] else None,
    )
    return QuarterlySeries._from_array(name if name is not None else path.stem, start, values)


def write_series_csv(series: QuarterlySeries, path: str | Path) -> None:
    _write_table(path, ["quarter", "value"], Frame(series.start_index, {series.name: series}))


def read_frame_csv(path: str | Path) -> Frame:
    """Read an aligned frame from a ``quarter,<col1>,<col2>,...`` CSV file."""
    names, start, data = _read_table(
        Path(path),
        "quarter,<columns...>",
        lambda h: h[1:] if len(h) >= 2 and h[0].lower() == "quarter" else None,
    )
    return align(QuarterlySeries._from_array(n, start, v) for n, v in zip(names, data))


def write_frame_csv(frame: Frame, path: str | Path) -> None:
    _write_table(path, ["quarter"] + frame.names(), frame)
