"""Quarterly time-series containers and data-preparation transforms.

Everything downstream works on two immutable containers: a
:class:`QuarterlySeries` (one named variable observed quarterly) and a
:class:`Frame` (several series aligned to a shared quarterly index).
Transforms never mutate; they return new values.

Data model: a series holds a read-only float64 ``array`` (NaN marks a
missing quarter) and the quarter number of its first value, ``start_index``
(see :attr:`Quarter.index`). Transforms are array slicing and masking;
:class:`Quarter` objects are made only at the edges (CSV, reports, error
messages). ``values`` is a tuple view with ``None`` for missing quarters,
for callers and tests, never for hot paths.

CSV conventions: one file per series with header ``quarter,value`` and rows
like ``1995Q1,89792``; an empty value field marks a missing observation.
Frames export as ``quarter,<col1>,<col2>,...``. CSV is UTF-8 (a leading
byte-order mark is accepted on read), comma delimited, ``.`` decimal
separator. Every file is written through :func:`atomic_write`, so a reader
never sees a partly written one.
"""

from __future__ import annotations

import contextlib
import csv
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, TextIO

import numpy as np

from .errors import DataError, InsufficientDataError, ParseError, SchemaError

_QUARTER_RE = re.compile(r"^(\d{4})-?Q(\d)$")


@dataclass(frozen=True, order=True)
class Quarter:
    """A calendar quarter, ordered chronologically."""

    year: int
    quarter: int

    def __post_init__(self) -> None:
        if not 1 <= self.quarter <= 4:
            raise ValueError(f"quarter must be in 1..4, got {self.quarter}")

    @classmethod
    def from_index(cls, index: int) -> Quarter:
        """Inverse of :attr:`index`: quarter number ``index`` since year 0."""
        index = int(index)
        return cls(index // 4, index % 4 + 1)

    @property
    def index(self) -> int:
        return self.year * 4 + self.quarter - 1

    def __add__(self, n: int) -> Quarter:
        return Quarter.from_index(self.index + n)

    def __sub__(self, other: Quarter | int):
        if isinstance(other, Quarter):
            return self.index - other.index
        return Quarter.from_index(self.index - other)

    def __str__(self) -> str:
        return f"{self.year}Q{self.quarter}"


def parse_quarter(text: str) -> Quarter:
    """Parse ``YYYYQn`` or ``YYYY-Qn`` into a :class:`Quarter`.

    Raises:
        ParseError: if the text is malformed or n is outside 1..4.
    """
    m = _QUARTER_RE.match(text.strip())
    if m is None:
        raise ParseError(f"not a quarter label: {text!r} (expected YYYYQn or YYYY-Qn)")
    year, q = int(m.group(1)), int(m.group(2))
    if not 1 <= q <= 4:
        raise ParseError(f"quarter out of range in {text!r}: Q{q}")
    return Quarter(year, q)


def shift(a: np.ndarray, k: int) -> np.ndarray:
    """``a`` moved ``k >= 0`` positions later: result[i] = a[i - k], NaN before."""
    out = np.full(len(a), np.nan)
    if k < len(a):
        out[k:] = a[: len(a) - k]
    return out


class QuarterlySeries:
    """A contiguous quarterly series with NaN marking missing quarters.

    ``array[i]`` is the observation at ``start + i``. ``values`` may be any
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
        return f"QuarterlySeries({self.name!r}, {self.start}, {self.values!r}, {self.unit!r})"

    @property
    def end(self) -> Quarter:
        return Quarter.from_index(self.start_index + len(self) - 1)

    def quarters(self) -> Iterator[Quarter]:
        for i in range(len(self)):
            yield Quarter.from_index(self.start_index + i)

    def get(self, q: Quarter) -> float | None:
        """Value at quarter ``q``; None when missing or out of range."""
        i = q.index - self.start_index
        v = float(self.array[i]) if 0 <= i < len(self) else None
        return None if v != v else v

    def items(self) -> Iterator[tuple[Quarter, float | None]]:
        return zip(self.quarters(), self.values)

    def to_array(self) -> np.ndarray:
        """Values as a new float array with NaN for missing."""
        return self.array.copy()

    def rename(self, name: str) -> QuarterlySeries:
        return QuarterlySeries._from_array(name, self.start_index, self.array, self.unit)

    def scale(self, factor: float, unit: str | None = None) -> QuarterlySeries:
        """Multiply all present values by ``factor``, optionally relabeling the unit."""
        return QuarterlySeries._from_array(
            self.name, self.start_index, self.array * factor, self.unit if unit is None else unit
        )

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
            for j in range(1, window):
                acc += a[j : n - window + 1 + j]
            out[window - 1 :] = acc / window
        return self._with_array(out)

    def forward_fill(self) -> QuarterlySeries:
        """Replace each missing value with the most recent present one."""
        a = self.array
        if not len(a) or np.isnan(a[0]):
            raise DataError(
                f"series {self.name!r} starts with a missing value; nothing to fill from"
            )
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

    def window(self, first: Quarter | None = None, last: Quarter | None = None) -> QuarterlySeries:
        """Restrict to quarters in ``[first, last]`` (clipped to the span)."""
        i0, end = self.start_index, self.start_index + len(self) - 1
        lo = i0 if first is None else max(first.index, i0)
        hi = end if last is None else min(last.index, end)
        return self._with_array(self.array[lo - i0 : max(hi, lo - 1) - i0 + 1], lo)


def interpolate_yearly_to_quarterly(
    yearly: Mapping[int, float],
    anchor_quarter: int = 4,
    name: str = "",
    unit: str = "",
) -> QuarterlySeries:
    """Expand yearly observations to a quarterly series by linear interpolation.

    Each yearly value is anchored at ``anchor_quarter`` of its year (default
    Q4, matching annual reporting convention); quarters between adjacent
    anchors are linearly interpolated. Anchored quarters carry the yearly
    inputs exactly. The series starts and ends at the first and last anchor.

    Raises:
        InsufficientDataError: with fewer than two yearly values.
    """
    if not 1 <= anchor_quarter <= 4:
        raise ValueError(f"anchor_quarter must be in 1..4, got {anchor_quarter}")
    if len(yearly) < 2:
        raise InsufficientDataError(
            f"need at least 2 yearly values to interpolate, got {len(yearly)}"
        )
    years = sorted(yearly)
    start = Quarter(years[0], anchor_quarter)
    values: list[float | None] = [float(yearly[years[0]])]
    for y0, y1 in zip(years, years[1:]):
        steps = 4 * (y1 - y0)
        v0, v1 = float(yearly[y0]), float(yearly[y1])
        for s in range(1, steps):
            values.append(v0 + (v1 - v0) * s / steps)
        values.append(v1)  # anchor carries the input exactly
    return QuarterlySeries(name=name, start=start, values=tuple(values), unit=unit)


class Frame:
    """Named quarterly series aligned to one shared index range."""

    __slots__ = ("start_index", "columns")

    def __init__(self, start: Quarter, columns: dict[str, QuarterlySeries] | None = None) -> None:
        self.start_index = start.index
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
        return f"Frame({self.start}, {self.columns!r})"

    @property
    def start(self) -> Quarter:
        return Quarter.from_index(self.start_index)

    @property
    def end(self) -> Quarter:
        return Quarter.from_index(self.start_index + len(self) - 1)

    def quarters(self) -> Iterator[Quarter]:
        for i in range(len(self)):
            yield Quarter.from_index(self.start_index + i)

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

    def complete_range(self) -> tuple[Quarter, Quarter] | None:
        """The longest contiguous run of quarters where every column is present.

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
        return (
            Quarter.from_index(self.start_index + starts[k]),
            Quarter.from_index(self.start_index + stops[k] - 1),
        )


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
    return Frame(Quarter.from_index(i0), aligned)


# -- CSV input/output -------------------------------------------------------


def format_value(v: float) -> str:
    """A CSV cell: the shortest round-tripping repr, empty for NaN."""
    return "" if v != v else repr(v)


def _parse_value(text: str, path: Path, line: int) -> float | None:
    text = text.strip()
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{path}:{line}: not a number: {text!r}") from None


def _read_table(path: Path, expected: str, names_of) -> tuple[list[str], Quarter, list[list]]:
    """Column names, first quarter and value columns of a ``quarter,...`` CSV file.

    ``names_of`` maps the header fields to the value column names, or to None
    when the header is not ``expected``. Rows must be contiguous quarters.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        names = None if header is None else names_of([h.strip() for h in header])
        if names is None:
            raise ParseError(f"{path}:1: expected header {expected!r}, got {header!r}")
        quarters: list[Quarter] = []
        data: list[list[float | None]] = [[] for _ in names]
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
    if not quarters:
        raise DataError(f"{path}: no data rows")
    for prev, cur in zip(quarters, quarters[1:]):
        if cur - prev != 1:
            raise ParseError(
                f"{path}: quarters must be contiguous and ascending; "
                f"found {prev} followed by {cur}"
            )
    return names, quarters[0], data


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


def _write_table(path: str | Path, header: list[str], start_index: int, columns) -> None:
    with atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, row in enumerate(zip(*(c.tolist() for c in columns))):
            q = Quarter.from_index(start_index + i)
            writer.writerow([str(q)] + [format_value(v) for v in row])


def read_series_csv(path: str | Path, name: str | None = None, unit: str = "") -> QuarterlySeries:
    """Read one series from a ``quarter,value`` CSV file; the name defaults to the file stem."""
    path = Path(path)
    _, start, (values,) = _read_table(
        path,
        "quarter,value",
        lambda h: ["value"] if [f.lower() for f in h[:2]] == ["quarter", "value"] else None,
    )
    return QuarterlySeries(
        name=name if name is not None else path.stem, start=start, values=values, unit=unit
    )


def write_series_csv(series: QuarterlySeries, path: str | Path) -> None:
    _write_table(path, ["quarter", "value"], series.start_index, [series.array])


def read_frame_csv(path: str | Path) -> Frame:
    """Read an aligned frame from a ``quarter,<col1>,<col2>,...`` CSV file."""
    names, start, data = _read_table(
        Path(path),
        "quarter,<columns...>",
        lambda h: h[1:] if len(h) >= 2 and h[0].lower() == "quarter" else None,
    )
    return align(QuarterlySeries(name=n, start=start, values=v) for n, v in zip(names, data))


def write_frame_csv(frame: Frame, path: str | Path) -> None:
    names = frame.names()
    _write_table(
        path, ["quarter"] + names, frame.start_index, [frame.columns[n].array for n in names]
    )
