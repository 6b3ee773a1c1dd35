"""Parsing of lab-cycle and fleet-charging files, capacity and SOH series.

Input files are delimited text (comma or tab) with a header row; the caller
supplies a column mapping because vendors disagree on layouts.  Capacity of
a charging event is coulomb counting normalized by the SOC span:
``(-integral I dt) / (SOC_end - SOC_start)`` with a left-rectangle sum,
current negative while charging.
"""

from __future__ import annotations

import csv
import itertools
import math
import operator
import os
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

VOLTAGE_WINDOW = (2.5, 4.3)  # default cell operating window, volts
MIN_SOC_SPAN = 0.1
NOMINAL_SAMPLE_PERIOD_S = 8.0
GAP_THRESHOLD_S = 10.0 * NOMINAL_SAMPLE_PERIOD_S
MIN_MONTHLY_EVENTS = 3


class ParseError(ValueError):
    """Raised when an input file cannot be turned into usable records."""


@dataclass(frozen=True)
class CycleSchema:
    """Column mapping for per-cycle charge files.

    Exactly one of ``charge`` (cumulative ampere-hours) or ``current``
    (amperes, negative while charging) must be mapped.  ``capacity`` is an
    optional per-cycle measured capacity column; when absent the cycle's
    total charge throughput is used instead.
    """

    cycle: str = "cycle"
    time: str = "time_s"
    voltage: str = "voltage_v"
    charge: str | None = "charge_ah"
    current: str | None = None
    capacity: str | None = "capacity_ah"
    voltage_window: tuple[float, float] = VOLTAGE_WINDOW


@dataclass(frozen=True)
class FleetSchema:
    """Column mapping for fleet charging logs."""

    timestamp: str = "timestamp"
    current: str = "current_a"
    voltage: str = "voltage_v"
    soc: str = "soc"
    temperature: str | None = None
    soc_in_percent: bool = True
    gap_threshold_s: float = GAP_THRESHOLD_S


SEGMENT_COLUMNS = ("time", "current", "voltage", "soc", "temperature")


@dataclass(frozen=True, eq=False)
class ChargeSegment:
    """One contiguous charging event from a single source, one read-only array per column."""

    source_id: str
    start_timestamp: datetime
    time: np.ndarray  # seconds since segment start
    current: np.ndarray  # amperes, negative while charging
    voltage: np.ndarray
    soc: np.ndarray  # fraction in [0, 1]
    temperature: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = np.size(self.time)
        for name in SEGMENT_COLUMNS:
            column = getattr(self, name)
            if column is None:
                continue
            own = np.array(column, dtype=float)  # a copy: the caller cannot change it later
            if own.shape != (n,):
                raise ValueError(f"segment column {name} must be 1-D with {n} samples")
            own.flags.writeable = False
            object.__setattr__(self, name, own)
        if n < 2:
            raise ValueError("charge segment needs at least 2 samples")
        if np.any(np.diff(self.time) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if not np.all((self.soc >= 0.0) & (self.soc <= 1.0)):
            raise ValueError("soc out of [0, 1]")
        if np.any(np.diff(self.soc) < 0):
            raise ValueError("soc must be non-decreasing after cleaning")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChargeSegment):
            return NotImplemented
        return (
            self.source_id == other.source_id
            and self.start_timestamp == other.start_timestamp
            and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in SEGMENT_COLUMNS)
        )

    def __hash__(self) -> int:
        return hash((self.source_id, self.start_timestamp, len(self.time)))


@dataclass(frozen=True)
class CycleRecord:
    """Charge curve and measured capacity for one aging cycle."""

    cycle_index: int
    charge_curve: np.ndarray  # (n, 3) columns: time_s, voltage_v, charge_ah
    measured_capacity: float

    def __post_init__(self) -> None:
        curve = np.asarray(self.charge_curve, dtype=float)
        if curve.ndim != 2 or curve.shape[1] != 3 or curve.shape[0] < 2:
            raise ValueError("charge_curve must be (n >= 2, 3)")
        if np.any(np.diff(curve[:, 2]) < 0):
            raise ValueError("cumulative charge must be non-decreasing")
        object.__setattr__(self, "charge_curve", curve)


@dataclass(frozen=True)
class SOHSeries:
    """Dimensionless state-of-health ratios over cycles or months."""

    index: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if len(self.index) != values.size:
            raise ValueError("index and values must have equal length")
        if np.any(values <= 0.0) or np.any(values > 1.05):
            raise ValueError("SOH values must lie in (0, 1.05]")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FleetMonthlyRecord:
    """Per-month capacity statistics for one vehicle."""

    vehicle_id: str
    month: int  # ordinal from fleet start
    capacities: tuple[float, ...]
    median_capacity: float
    mean_capacity: float


@dataclass(frozen=True)
class _Columns:
    """The mapped columns of a block of a file's data rows, each converted to float64 once.

    Column ``j`` of ``values`` holds the field at header position ``cols[j]``.
    A field that is missing or is not a number reads NaN in ``values`` and
    False in ``parsed``; ``blank`` marks the empty ones.  ``lineno`` is each
    row's 1-based line in the file and ``fields(i)`` gives row ``i`` as split
    from the block's own lines, so that an error can name the line and quote
    the field.  ``error`` is a ``csv`` failure that ended the rows early: it
    is raised once the rows before it have passed their checks, as a
    streaming reader would.
    """

    path: Path
    cols: list[int]
    values: np.ndarray
    parsed: np.ndarray
    blank: np.ndarray
    lineno: np.ndarray | range
    fields: Callable[[int], list[str]]
    error: ParseError | None = None

    def check_rows(self, bad: np.ndarray, convert: Callable[[list[str]], object]) -> None:
        """Raise for the first row flagged ``bad``, with the error ``convert`` gives on it.

        ``convert`` is the field-by-field conversion of one row, so the
        message names the first bad field exactly as a row-at-a-time reader
        would; then the pending ``csv`` error, if any, is raised.
        """
        flagged = np.flatnonzero(bad)
        if flagged.size:
            i = flagged[0]
            try:
                convert(self.fields(i))
            except (ValueError, IndexError) as exc:
                raise ParseError(f"{self.path}:{self.lineno[i]}: bad row: {exc}") from exc
            raise ParseError(f"{self.path}:{self.lineno[i]}: bad row")
        if self.error is not None:
            raise self.error


_BLOCK_CHARS = 1 << 16  # characters of whole lines read and converted at a time
_SLICE_ROWS = 256  # rows whose mapped fields ``_split`` holds as ``str`` before converting them


class _Lines:
    """An open file's lines as ``str.splitlines`` splits the whole text, read a block at a time.

    A block is ``_BLOCK_CHARS`` characters and the rest of the line they end
    in.  It ends at a ``\\n`` (universal newlines have turned ``\\r\\n`` and
    ``\\r`` into it) or at the end of the file, so splitting each block
    gives the lines that splitting the whole text would.  Iterating gives
    one line at a time; ``block()`` gives all the lines not given yet.
    """

    def __init__(self, f: TextIO) -> None:
        self.f, self.rest = f, iter([])

    def __iter__(self) -> Iterator[str]:
        while block := self.block():
            self.rest = iter(block)
            yield from self.rest

    def block(self) -> list[str]:
        """The lines left of the block read last, else the next block's; ``[]`` at the end."""
        return list(self.rest) or (self.f.read(_BLOCK_CHARS) + self.f.readline()).splitlines()


def _header(lines: Iterable[str], path: Path) -> tuple[str, list[str], int]:
    """The delimiter, the header row and the number of lines up to and including it.

    The delimiter is a tab if the first non-blank line holds one, else a
    comma; the header is the first row with anything but whitespace and
    delimiters in it.  Only the lines up to the header are read.
    """
    leading, delimiter = [], ","
    for line in lines:
        leading.append(line)
        if line.strip():
            delimiter = "\t" if "\t" in line else ","
            break
    reader = csv.reader(itertools.chain(leading, lines), delimiter=delimiter)
    try:
        header = next((row for row in reader if "".join(row).strip()), None)
    except csv.Error as exc:
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    if header is None:
        raise ParseError(f"{path}: empty file")
    return delimiter, [h.strip() for h in header], reader.line_num


def _loaded(
    lines: list[str], start: int, path: Path, delimiter: str, cols: list[int], optional: int | None
) -> _Columns | None:
    """The rows of ``lines``, the file's lines after line ``start``, converted by ``np.loadtxt``.

    None where ``csv`` might split them otherwise: a line holds a quote, is
    blank (``csv`` skips it) or is longer than the ``csv`` field-size limit.
    None too where ``np.loadtxt`` refuses them, even when asked once more
    with ``cols[optional]`` read by ``_empty_as_nan``.  Its number parser
    accepts the same strings as ``float`` and gives the same value.
    """
    if not all(lines) or '"' in "".join(lines) or max(map(len, lines)) > csv.field_size_limit():
        return None

    def load(converters: dict | None = None) -> np.ndarray | None:
        try:
            return np.loadtxt(
                lines, dtype=float, delimiter=delimiter, usecols=cols, comments=None, ndmin=2,
                converters=converters,
            )
        except ValueError:
            return None

    values = load()
    read_empty = values is None and optional is not None and optional < len(cols)
    if read_empty:  # refused at an empty field, most likely
        values = load({cols[optional]: _empty_as_nan})
    if values is None or len(values) != len(lines):
        return None
    blank = np.zeros(values.shape, dtype=bool)
    if read_empty:  # only an empty field reads as NaN there; a written "nan" is refused
        blank[:, optional] = np.isnan(values[:, optional])
    lineno = range(start + 1, start + 1 + len(lines))
    return _Columns(path, cols, values, ~blank, blank, lineno, lambda i: lines[i].split(delimiter))


def _converted(picked: list[str | None], width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of ``width`` fields laid end to end in ``picked``, as values, parsed and blank."""
    values = np.full((len(picked) // width, width), np.nan)
    parsed = np.zeros(values.shape, dtype=bool)
    blank = np.zeros(values.shape, dtype=bool)
    for j in range(width):
        fields = picked[j::width]
        try:  # a whole column of numbers converts at once
            values[:, j] = [float(f) for f in fields]
            parsed[:, j] = True
            continue
        except (ValueError, TypeError):
            pass
        for i, f in enumerate(fields):
            if f is not None:
                blank[i, j] = f == ""
                try:
                    values[i, j] = float(f)
                    parsed[i, j] = True
                except ValueError:
                    pass
    return values, parsed, blank


def _split(
    lines: list[str], more: Iterable[str], start: int, path: Path, delimiter: str, cols: list[int]
) -> _Columns:
    """The rows of ``lines``, the file's lines after line ``start``, split by ``csv``.

    Rows with only whitespace and delimiters are skipped.  A quoted field
    still open at the last line takes the lines it needs from ``more``, and
    they are appended to ``lines``.  The mapped fields are converted
    ``_SLICE_ROWS`` rows at a time, with ``float``, field by field where
    a column of the slice holds a bad field.
    """
    n = len(lines)

    def source() -> Iterator[str]:
        yield from lines
        for line in more:  # only while a quoted field is open at the last line
            lines.append(line)
            yield line

    picked: list[str | None] = []  # the fields of ``cols``, row after row, since the last slice
    slices = []
    begin: list[int] = []  # the first line of each row, as an index into ``lines``
    lineno: list[int] = []
    error = None
    pick = operator.itemgetter(*cols)  # a tuple: both parsers map at least four columns
    reader = csv.reader(source(), delimiter=delimiter)
    end = 0
    try:
        for row in reader:
            if "".join(row).strip():
                try:
                    picked.extend(pick(row))
                except IndexError:  # a short row: its missing fields read None
                    picked.extend(row[c] if c < len(row) else None for c in cols)
                begin.append(end)
                lineno.append(start + reader.line_num)
                if len(picked) == _SLICE_ROWS * len(cols):
                    slices.append(_converted(picked, len(cols)))
                    picked = []
            end = reader.line_num
            if end >= n:
                break
    except csv.Error as exc:
        error = ParseError(f"{path}:{start + reader.line_num}: {exc}")
    slices.append(_converted(picked, len(cols)))
    values, parsed, blank = (np.concatenate(arrays) for arrays in zip(*slices))

    def fields(i: int) -> list[str]:
        first, stop = begin[i], lineno[i] - start
        if stop == first + 1 and '"' not in lines[first]:  # split as csv would
            return lines[first].split(delimiter)
        return next(csv.reader(lines[first:stop], delimiter=delimiter))

    return _Columns(path, cols, values, parsed, blank, np.array(lineno, dtype=int), fields, error)


def _read_columns(
    path: Path | str,
    resolve: Callable[[list[str]], list[int]],
    each: Callable[[_Columns], object],
    optional: int | None = None,
) -> list:
    """Read a delimited file block by block, and return ``each`` of every block in file order.

    The header is found as ``_header`` finds it, and later rows with only
    whitespace and delimiters are skipped too.  ``resolve(header)`` returns
    the header positions to convert, or raises; ``cols[optional]``, when
    there is one, may hold empty fields.  The file is decoded in the
    locale's encoding with universal newlines, and split into lines as
    ``str.splitlines`` splits the whole text (``_Lines``).

    A block is converted by ``np.loadtxt`` where it gives what ``csv`` and
    ``float`` would (``_loaded``), else split by ``csv`` on its own
    (``_split``); either way an error names the same line and field.  A
    ``ParseError`` ends the reading, but only once the file is read to its
    end, so that a file that cannot be decoded is reported as such first.
    """
    path = Path(path)
    try:
        with path.open() as f:
            lines = _Lines(f)
            try:
                delimiter, header, start = _header(lines, path)
                cols = resolve(header)
                found = []
                while block := lines.block():
                    table = (_loaded(block, start, path, delimiter, cols, optional)
                             or _split(block, lines, start, path, delimiter, cols))
                    start += len(block)
                    found.append(each(table))
                return found
            except ParseError:
                while f.read(_BLOCK_CHARS):
                    pass
                raise
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: unreadable file: {exc}") from exc


# bytes that the locale's decoding, ``str.splitlines``, ``csv`` and both number
# parsers read alike in any block: printable ASCII but the quote, tab and \n
_PLAIN = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\n"


def _plain_header(f: BinaryIO, path: Path) -> tuple[str, list[str]] | None:
    """The delimiter and header of the binary file ``f``, found as ``_header`` finds them.

    Leaves ``f`` at the first byte after the header line.  None unless
    every line up to the header is plain (``_PLAIN``) and ends in ``\\n``.
    """
    f.seek(0)
    head = []

    def lines() -> Iterator[str]:
        while (raw := f.readline(_BLOCK_CHARS)).endswith(b"\n"):
            head.append(raw)
            yield raw[:-1].decode("latin-1")

    try:
        delimiter, header, _ = _header(lines(), path)
    except ParseError:
        return None
    if any(raw.translate(None, _PLAIN) for raw in head):
        return None
    return delimiter, header


def cycle_spans(path: Path | str, schema: CycleSchema, n: int) -> list[tuple[int, int]] | None:
    """About ``n`` spans ``(begin, end)`` of the bytes after the header, each starting a cycle.

    The spans cover the data bytes in file order.  Each cut after the first
    is the start of a line whose cycle field differs, as bytes, from the
    line before it, the first such line at or after an ``n``-th of the data.
    None unless the lines up to the header are plain and name the cycle
    column.  Whether a span reads as the whole file would is for
    ``parse_cycle_file`` to tell.
    """
    path = Path(path)
    with path.open("rb") as f:
        found = _plain_header(f, path)
        if found is None or schema.cycle not in found[1]:
            return None
        sep, col = found[0].encode(), found[1].index(schema.cycle)
        begin, size = f.tell(), f.seek(0, os.SEEK_END)

        def cycle(line: bytes) -> list[bytes]:
            return line.rstrip(b"\n").split(sep, col + 1)[col : col + 1]

        cuts = [begin]
        for k in range(1, n):
            f.seek(max(begin + (size - begin) * k // n, cuts[-1] + 1) - 1)
            f.readline(_BLOCK_CHARS)  # on to a line start, unless the line is longer
            here, last = f.tell(), None
            # a cut follows a whole line, so it is a line start
            while (line := f.readline(_BLOCK_CHARS)).endswith(b"\n"):
                if last is not None and cycle(line) != last:
                    cuts.append(here)
                    break
                last, here = cycle(line), here + len(line)
            else:  # the last cycle runs to the end, or a line is too long to scan
                break
    return list(zip(cuts, cuts[1:] + [size]))


def _read_span(
    path: Path, span: tuple[int, int], resolve: Callable[[list[str]], list[int]],
    each: Callable[[_Columns], object], optional: int | None = None,
) -> list:
    """``_read_columns`` of the lines in bytes ``[begin, end)``, a span from ``cycle_spans``.

    A block is ``_BLOCK_CHARS`` bytes and the rest of the line they end in.
    Raises ParseError for any block that the whole-file read might read
    otherwise: one with a byte that is not plain, or one that ``_loaded``
    refuses.  Line numbers count from the span's first line.
    """
    begin, end = span
    with path.open("rb") as f:
        found = _plain_header(f, path)
        if found is None:
            raise ParseError(f"{path}: the lines up to the header are not plain")
        delimiter, header = found
        cols = resolve(header)
        f.seek(begin)
        blocks = []
        while (at := f.tell()) < end:
            raw = f.read(min(_BLOCK_CHARS, end - at))
            if f.tell() < end:
                raw += f.readline()
            table = None
            if raw and not raw.translate(None, _PLAIN):
                table = _loaded(raw.decode("ascii").splitlines(), 0, path, delimiter, cols, optional)
            if table is None:
                raise ParseError(f"{path}: bytes {at}-{f.tell()} need the whole-file read")
            blocks.append(each(table))
        return blocks


def _empty_as_nan(raw: str) -> float:
    """An optional field: NaN when empty, else a finite number (the bulk read refuses others)."""
    if not raw:
        return math.nan
    return _finite(raw)


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


def _column(header: list[str], name: str, path: Path | str) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise ParseError(f"{path}: missing mapped column {name!r}") from None


def _parse_timestamp(raw: str) -> datetime:
    try:
        return datetime.fromtimestamp(float(raw), tz=timezone.utc)
    except (ValueError, OverflowError, OSError):
        pass
    try:
        ts = datetime.fromisoformat(raw)
    except ValueError:
        raise ValueError(f"bad timestamp {raw!r}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_DATETIME_SECONDS = (-62_135_596_800, 253_402_300_799)  # years 1 and 9999, whole seconds


def _epoch_microseconds(seconds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds as int64 microseconds, rounded as ``datetime.fromtimestamp`` rounds.

    The fraction of ``modf`` is rounded half to even and carried into the
    whole seconds.  Also returns where the result is a valid ``datetime``;
    elsewhere (NaN, infinite or out of range) it reads 0.
    """
    frac, whole = np.modf(seconds)
    micro = np.rint(frac * 1e6)
    carry = (micro >= 1e6).astype(float) - (micro < 0)
    micro -= carry * 1e6
    whole += carry
    ok = (whole >= _DATETIME_SECONDS[0]) & (whole <= _DATETIME_SECONDS[1])
    whole, micro = (np.where(ok, x, 0).astype(np.int64) for x in (whole, micro))
    return whole * 1_000_000 + micro, ok


def parse_cycle_file(
    path: Path | str, schema: CycleSchema = CycleSchema(), span: tuple[int, int] | None = None
) -> tuple[list[CycleRecord], int] | tuple[list[CycleRecord], int, tuple[int, int] | None]:
    """Parse a per-cycle charge file, or the span of it that ``span`` names.

    Returns the records sorted by cycle index together with the count of
    rows dropped for violating the voltage window.  Within a cycle, rows are
    ordered by time, equal times keeping their file order.

    Each block of rows is checked as it is read, and only its kept rows'
    time, voltage and charge columns are kept, one piece per cycle, with
    the earliest measured capacity among them; each cycle's pieces are
    merged once the file is read.

    With a ``span`` from :func:`cycle_spans`, only its bytes are read
    (``_read_span``), and the result has a third item: the first and last
    cycle number among the kept rows, None when none is kept.  A span
    without records is no error, and a ParseError only says that the whole
    file must be read instead, for the message that read gives.  Where the kept
    cycles rise from span to span, no two spans keep rows of one cycle, and
    the spans' records, in span order, are the whole file's.
    """

    def resolve(header: list[str]) -> list[int]:
        names = [schema.cycle, schema.time, schema.voltage]
        cols = [_column(header, name, path) for name in names]
        if schema.charge is None and schema.current is None:
            raise ParseError(f"{path}: schema maps neither charge nor current")
        charge = schema.charge if schema.charge is not None else schema.current
        cols.append(_column(header, charge, path))
        if schema.capacity in header:
            cols.append(_column(header, schema.capacity, path))
        return cols

    lo, hi = schema.voltage_window

    def pieces(block: _Columns) -> tuple[int, list[tuple[float, np.ndarray, tuple | None]]]:
        """The block's dropped count, and per cycle its kept rows and earliest (time, capacity)."""
        cols, values = block.cols, block.values
        finite = np.isfinite(values)
        in_window = (lo <= values[:, 2]) & (values[:, 2] <= hi)  # NaN falls outside the window too
        kept_bad = ~finite[:, 3]
        if len(cols) == 5:  # an empty capacity field means "not measured"
            kept_bad |= ~finite[:, 4] & ~block.blank[:, 4]
        bad = ~finite[:, 0] | ~finite[:, 1] | ~block.parsed[:, 2] | (in_window & kept_bad)

        def convert(row: list[str]) -> None:
            _finite(row[cols[0]])
            _finite(row[cols[1]])
            if lo <= float(row[cols[2]]) <= hi:
                _finite(row[cols[3]])
                if len(cols) == 5 and row[cols[4]] != "":
                    _finite(row[cols[4]])

        block.check_rows(bad, convert)
        kept = np.flatnonzero(in_window)
        key = np.trunc(values[kept, 0])  # the cycle number int() gives
        order = np.argsort(key, kind="stable")  # each cycle's rows together, in file order
        kept, key = kept[order], key[order]
        edges = np.flatnonzero(np.diff(key, prepend=np.nan, append=np.nan) != 0)
        found = []
        for a, b in zip(edges[:-1], edges[1:]):
            rows = kept[a:b]
            curve = values[rows, 1:4]
            measured = np.flatnonzero(~np.isnan(values[rows, 4])) if len(cols) == 5 else []
            first = None
            if len(measured):  # argmin: equal times keep their file order
                i = measured[np.argmin(curve[measured, 0])]
                first = (curve[i, 0], values[rows[i], 4])
            found.append((key[a], curve, first))
        return len(values) - len(kept), found

    dropped = 0
    cycles: dict[float, list[tuple[np.ndarray, tuple | None]]] = {}
    if span is None:
        blocks = _read_columns(path, resolve, pieces, optional=4)
    else:
        blocks = _read_span(Path(path), span, resolve, pieces, optional=4)
    for block_dropped, found in blocks:
        dropped += block_dropped
        for key, curve, first in found:
            cycles.setdefault(key, []).append((curve, first))
    records = []
    keys = sorted(cycles)
    for key in keys:
        curves, firsts = zip(*cycles.pop(key))
        curve = curves[0] if len(curves) == 1 else np.concatenate(curves)
        if len(curve) < 2:
            continue
        t = curve[:, 0]
        if np.any(t[1:] < t[:-1]):  # stable: equal times keep their file order
            curve = curve[np.argsort(t, kind="stable")]
            t = curve[:, 0]
        if schema.charge is None:  # integrate the current
            curve[:, 2] = np.cumsum(-curve[:, 2] * np.diff(t, prepend=t[0])) / 3600.0
        measured = [first for first in firsts if first is not None]
        if measured:  # min keeps the earliest block among equal times
            capacity = float(min(measured, key=operator.itemgetter(0))[1])
        else:
            capacity = float(curve[-1, 2] - curve[0, 2])
        try:
            records.append(CycleRecord(int(key), curve, capacity))
        except ValueError as exc:
            raise ParseError(f"{path}: cycle {int(key)}: {exc}") from None
    if span is not None:
        return records, dropped, (int(keys[0]), int(keys[-1])) if keys else None
    if not records:
        raise ParseError(f"{path}: zero usable rows")
    return records, dropped


def parse_fleet_file(
    path: Path | str, schema: FleetSchema = FleetSchema(), source_id: str | None = None
) -> list[ChargeSegment]:
    """Parse a fleet charging log into charging segments.

    Samples are ordered by time (equal times keep their file order) and split
    into segments wherever the time gap exceeds the schema threshold.
    Within a segment, samples whose SOC dips below the running maximum are
    dropped as sensor jitter, and a sample that repeats the previous one
    exactly (timestamp and values) is dropped as a logging duplicate; a
    repeated timestamp with other values is a ``ParseError``.  Timestamps
    are epoch seconds or ISO-8601 (UTC when no offset is written); SOC
    values logged in percent are converted to fractions.

    Each block of rows is checked as it is read; the blocks are then joined,
    because the order by time is global.
    """

    def resolve(header: list[str]) -> list[int]:
        names = [schema.timestamp, schema.current, schema.voltage, schema.soc]
        if schema.temperature in header:
            names.append(schema.temperature)
        return [_column(header, name, path) for name in names]

    def checked(block: _Columns) -> tuple[np.ndarray, np.ndarray, dict, np.ndarray | range]:
        """The block's epoch microseconds, other columns, ISO stamps by line, and lines."""
        cols = block.cols
        # epoch seconds in bulk; anything else (ISO-8601, or a bad stamp) one by one
        micros, numeric = _epoch_microseconds(block.values[:, 0])
        bad = ~np.all(np.isfinite(block.values[:, 1:]), axis=1)
        written: dict[int, datetime] = {}
        for i in np.flatnonzero(~numeric).tolist():
            try:
                written[i] = _parse_timestamp(block.fields(i)[cols[0]])
            except (ValueError, IndexError):
                bad[i] = True
                break  # the first bad row is the one reported
        if written:
            step = timedelta(microseconds=1)
            micros[list(written)] = [(ts - _EPOCH) // step for ts in written.values()]

        def convert(row: list[str]) -> None:
            _parse_timestamp(row[cols[0]])
            for c in cols[1:]:
                _finite(row[c])

        block.check_rows(bad, convert)
        by_line = {block.lineno[i]: ts for i, ts in written.items()}
        return micros, block.values[:, 1:], by_line, block.lineno

    blocks = _read_columns(path, resolve, checked)
    if not any(len(micros) for micros, *_ in blocks):
        raise ParseError(f"{path}: empty file")
    micros, columns, stamps, lines = zip(*blocks)
    del blocks
    micros, columns = np.concatenate(micros), np.concatenate(columns)
    written = {line: ts for by_line in stamps for line, ts in by_line.items()}
    plain = all(isinstance(block, range) for block in lines)  # each follows the one before
    lineno = range(lines[0].start, lines[-1].stop) if plain else np.concatenate(lines)
    source = source_id if source_id is not None else Path(path).stem

    order = np.argsort(micros, kind="stable")
    micros = micros[order]
    columns = columns[order]

    def stamp(p: int) -> datetime:
        """The timestamp of sample ``p`` in time order as written: its own offset, or UTC."""
        return written.get(lineno[order[p]]) or _EPOCH + timedelta(microseconds=int(micros[p]))

    if schema.soc_in_percent:
        columns[:, 2] /= 100.0
    soc = columns[:, 2]
    opens = np.r_[True, np.diff(micros) / 1e6 > schema.gap_threshold_s]
    chunk = np.cumsum(opens) - 1
    firsts = np.flatnonzero(opens)
    time = (micros - micros[firsts][chunk]) / 1e6

    # a sample whose SOC is below the running maximum of its segment is a dip;
    # equal SOCs share a rank, and the offset resets the running maximum at each segment
    level = chunk * (len(soc) + 1) + np.searchsorted(np.sort(soc), soc)
    keep = level >= np.maximum.accumulate(level)
    del level
    # a kept sample at the time of the previous kept one repeats it or conflicts with it
    k = np.flatnonzero(keep)
    twin = np.flatnonzero((chunk[k[1:]] == chunk[k[:-1]]) & (time[k[1:]] == time[k[:-1]]))
    equal = np.all(columns[k[twin + 1]] == columns[k[twin]], axis=1)
    keep[k[twin[equal] + 1]] = False
    conflicts = k[twin[~equal] + 1]
    del k, twin, equal
    # the segments before the first conflict are built, and checked, before it is reported
    last = chunk[conflicts[0]] if conflicts.size else chunk[-1] + 1
    k = np.flatnonzero(keep & (chunk < last))
    del keep
    bounds = np.flatnonzero(np.diff(chunk[k], prepend=-1, append=-1) != 0)
    spans = [(a, b) for a, b in zip(bounds[:-1], bounds[1:]) if b - a >= 2]
    # the few stamps and the line still needed, so that the per-sample arrays can go
    starts = [stamp(firsts[chunk[k[a]]]) for a, _ in spans]
    conflict = None
    if conflicts.size:
        c = conflicts[0]
        conflict = (
            f"{path}:{lineno[order[c]]}: timestamp {stamp(c).isoformat()} "
            "repeated with different values"
        )
    del order, micros, chunk, firsts, conflicts, written

    segments: list[ChargeSegment] = []
    for (a, b), start_ts in zip(spans, starts):
        samples = columns[k[a:b]]
        try:
            segments.append(ChargeSegment(
                source, start_ts, time[k[a:b]], samples[:, 0], samples[:, 1], samples[:, 2],
                samples[:, 3] if samples.shape[1] == 4 else None,
            ))
        except ValueError as exc:
            raise ParseError(f"{path}: segment starting {start_ts.isoformat()}: {exc}") from None
    if conflict is not None:
        raise ParseError(conflict)
    return segments


def compute_capacity(segment: ChargeSegment) -> float:
    """Capacity in ampere-hours from coulomb counting over an SOC span.

    Left-rectangle integration of the (negative) charging current over the
    segment, divided by the SOC gained.
    """
    soc_span = float(segment.soc[-1] - segment.soc[0])
    if soc_span < MIN_SOC_SPAN:
        raise ValueError(
            f"SOC span {soc_span:.4f} below threshold {MIN_SOC_SPAN}: uninformative snippet"
        )
    current = segment.current
    if np.all(current >= 0.0):
        raise ValueError("non-negative current throughout: not a charging segment")
    charge_as = float(np.sum(-current[:-1] * np.diff(segment.time)))
    return charge_as / 3600.0 / soc_span


def monthly_aggregate(
    segments: Iterable[ChargeSegment],
) -> tuple[list[FleetMonthlyRecord], dict[int, int]]:
    """Aggregate per-event capacities into monthly records.

    Both the mean and the median capacity are filled in on every record;
    the caller picks one.  Months with fewer than ``MIN_MONTHLY_EVENTS``
    usable events are omitted; the returned mapping reports how many
    events each omitted month had.  Events whose SOC span is below
    ``MIN_SOC_SPAN`` are skipped.
    """
    by_month: dict[tuple[str, int, int], list[float]] = {}
    for seg in segments:
        try:
            cap = compute_capacity(seg)
        except ValueError:
            continue
        key = (seg.source_id, seg.start_timestamp.year, seg.start_timestamp.month)
        by_month.setdefault(key, []).append(cap)
    if not by_month:
        return [], {}

    months = sorted(by_month)
    y0, m0 = months[0][1], months[0][2]
    records: list[FleetMonthlyRecord] = []
    omitted: dict[int, int] = {}
    for vid, year, month in months:
        caps = by_month[(vid, year, month)]
        ordinal = (year - y0) * 12 + (month - m0)
        if len(caps) < MIN_MONTHLY_EVENTS:
            omitted[ordinal] = len(caps)
            continue
        records.append(
            FleetMonthlyRecord(
                vehicle_id=vid,
                month=ordinal,
                capacities=tuple(caps),
                median_capacity=float(np.median(caps)),
                mean_capacity=float(np.mean(caps)),
            )
        )
    return records, omitted


def compute_soh(
    capacities: Sequence[float],
    denominator: str | float = "first",
    index: Sequence[int] | None = None,
) -> SOHSeries:
    """Element-wise capacity ratio to a reference capacity.

    ``denominator`` is ``"first"``, ``"max"``, or an explicit positive
    ampere-hour value.
    """
    caps = np.asarray(capacities, dtype=float)
    if caps.size == 0:
        raise ValueError("capacities must be non-empty")
    if np.any(caps <= 0.0):
        raise ValueError("capacities must all be positive")
    if denominator == "first":
        ref = caps[0]
    elif denominator == "max":
        ref = caps.max()
    else:
        ref = float(denominator)
    if ref <= 0.0:
        raise ValueError("denominator must be positive")
    idx = tuple(index) if index is not None else tuple(range(caps.size))
    return SOHSeries(index=idx, values=caps / ref)
