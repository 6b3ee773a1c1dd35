"""Parsing of lab-cycle and fleet-charging files, capacity and SOH series.

Input files are delimited text (comma or tab) with a header row; the caller
supplies a column mapping because vendors disagree on layouts.  Capacity of
a charging event is coulomb counting normalized by the SOC span:
``(-integral I dt) / (SOC_end - SOC_start)`` with a left-rectangle sum,
current negative while charging.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator, Sequence

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


@dataclass(frozen=True)
class ChargeSample:
    """One telemetry sample inside a charging event."""

    time: float  # seconds since segment start
    current: float  # amperes, negative while charging
    voltage: float
    soc: float  # fraction in [0, 1]
    temperature: float | None = None


@dataclass(frozen=True)
class ChargeSegment:
    """One contiguous charging event from a single source."""

    source_id: str
    start_timestamp: datetime
    samples: tuple[ChargeSample, ...]

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise ValueError("charge segment needs at least 2 samples")
        times = [s.time for s in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample times must be strictly increasing")
        socs = [s.soc for s in self.samples]
        if any(not 0.0 <= s <= 1.0 for s in socs):
            raise ValueError("soc out of [0, 1]")
        if any(b < a for a, b in zip(socs, socs[1:])):
            raise ValueError("soc must be non-decreasing after cleaning")


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


def _open_rows(path: Path | str) -> tuple[list[str], Iterator[tuple[int, list[str]]]]:
    """Header, then the data rows streamed with their 1-based line numbers.

    Rows with nothing but whitespace are skipped.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: unreadable file: {exc}") from exc
    first = next((ln for ln in lines if ln.strip()), "")
    reader = csv.reader(lines, delimiter="\t" if "\t" in first else ",")

    def rows() -> Iterator[tuple[int, list[str]]]:
        try:
            for row in reader:
                if "".join(row).strip():
                    yield reader.line_num, row
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None

    numbered = rows()
    _, header = next(numbered, (0, None))
    if header is None:
        raise ParseError(f"{path}: empty file")
    return [h.strip() for h in header], numbered


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


def parse_cycle_file(
    path: Path | str, schema: CycleSchema = CycleSchema()
) -> tuple[list[CycleRecord], int]:
    """Parse a per-cycle charge file.

    Returns the records sorted by cycle index together with the count of
    rows dropped for violating the voltage window.
    """
    header, rows = _open_rows(path)
    i_cycle = _column(header, schema.cycle, path)
    i_time = _column(header, schema.time, path)
    i_volt = _column(header, schema.voltage, path)
    if schema.charge is not None:
        i_q = _column(header, schema.charge, path)
        i_cur = None
    elif schema.current is not None:
        i_cur = _column(header, schema.current, path)
        i_q = None
    else:
        raise ParseError(f"{path}: schema maps neither charge nor current")
    i_cap = _column(header, schema.capacity, path) if schema.capacity in header else None

    lo, hi = schema.voltage_window
    dropped = 0
    by_cycle: dict[int, list[tuple[float, float, float, float | None]]] = {}
    for lineno, row in rows:
        try:
            cyc = int(_finite(row[i_cycle]))
            t = _finite(row[i_time])
            v = float(row[i_volt])
            if not lo <= v <= hi:  # NaN falls outside the window too
                dropped += 1
                continue
            q = _finite(row[i_q if i_q is not None else i_cur])  # current is integrated below
            cap = _finite(row[i_cap]) if i_cap is not None and row[i_cap] != "" else None
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}:{lineno}: bad row: {exc}") from exc
        by_cycle.setdefault(cyc, []).append((t, v, q, cap))

    records = []
    for cyc in sorted(by_cycle):
        pts = sorted(by_cycle[cyc], key=lambda p: p[0])
        t = np.array([p[0] for p in pts])
        v = np.array([p[1] for p in pts])
        if i_q is not None:
            q = np.array([p[2] for p in pts])
        else:
            cur = np.array([p[2] for p in pts])
            dt = np.diff(t, prepend=t[0])
            q = np.cumsum(-cur * dt) / 3600.0
        caps = [p[3] for p in pts if p[3] is not None]
        capacity = caps[0] if caps else float(q[-1] - q[0])
        if len(t) < 2:
            continue
        try:
            records.append(CycleRecord(cyc, np.column_stack([t, v, q]), capacity))
        except ValueError as exc:
            raise ParseError(f"{path}: cycle {cyc}: {exc}") from None
    if not records:
        raise ParseError(f"{path}: zero usable rows")
    return records, dropped


def parse_fleet_file(
    path: Path | str, schema: FleetSchema = FleetSchema(), source_id: str | None = None
) -> list[ChargeSegment]:
    """Parse a fleet charging log into charging segments.

    Samples are split into segments wherever the time gap exceeds the
    schema threshold.  Within a segment, samples whose SOC dips below the
    running maximum are dropped as sensor jitter, and a sample that repeats
    the previous one exactly (timestamp and values) is dropped as a logging
    duplicate; a repeated timestamp with other values is a ``ParseError``.
    SOC values logged in percent are converted to fractions.
    """
    header, rows = _open_rows(path)
    i_ts = _column(header, schema.timestamp, path)
    i_cur = _column(header, schema.current, path)
    i_volt = _column(header, schema.voltage, path)
    i_soc = _column(header, schema.soc, path)
    i_temp = (
        _column(header, schema.temperature, path)
        if schema.temperature in header
        else None
    )
    source = source_id if source_id is not None else Path(path).stem

    parsed: list[tuple[datetime, float, float, float, float | None, int]] = []
    for lineno, row in rows:
        try:
            ts = _parse_timestamp(row[i_ts])
            cur = _finite(row[i_cur])
            volt = _finite(row[i_volt])
            soc = _finite(row[i_soc])
            temp = _finite(row[i_temp]) if i_temp is not None else None
        except (ValueError, IndexError) as exc:
            raise ParseError(f"{path}:{lineno}: bad row: {exc}") from exc
        if schema.soc_in_percent:
            soc /= 100.0
        parsed.append((ts, cur, volt, soc, temp, lineno))
    if not parsed:
        raise ParseError(f"{path}: empty file")
    parsed.sort(key=lambda p: p[0])

    segments: list[ChargeSegment] = []
    chunk: list[tuple[datetime, float, float, float, float | None, int]] = []
    for point in parsed:
        if chunk and (point[0] - chunk[-1][0]).total_seconds() > schema.gap_threshold_s:
            seg = _build_segment(source, chunk, path)
            if seg is not None:
                segments.append(seg)
            chunk = []
        chunk.append(point)
    seg = _build_segment(source, chunk, path)
    if seg is not None:
        segments.append(seg)
    return segments


def _build_segment(
    source: str,
    chunk: list[tuple[datetime, float, float, float, float | None, int]],
    path: Path | str,
) -> ChargeSegment | None:
    if len(chunk) < 2:
        return None
    start = chunk[0][0]
    # drop SOC dips (quantization jitter) and exact repeats so the segment invariant holds
    kept: list[ChargeSample] = []
    soc_max = -math.inf
    for ts, cur, volt, soc, temp, lineno in chunk:
        if soc < soc_max:
            continue
        soc_max = soc
        sample = ChargeSample((ts - start).total_seconds(), cur, volt, soc, temp)
        if kept and sample.time <= kept[-1].time:
            if sample == kept[-1]:
                continue
            raise ParseError(
                f"{path}:{lineno}: timestamp {ts.isoformat()} repeated with different values"
            )
        kept.append(sample)
    if len(kept) < 2:
        return None
    try:
        return ChargeSegment(source, start, tuple(kept))
    except ValueError as exc:
        raise ParseError(f"{path}: segment starting {start.isoformat()}: {exc}") from None


def compute_capacity(segment: ChargeSegment, min_soc_span: float = MIN_SOC_SPAN) -> float:
    """Capacity in ampere-hours from coulomb counting over an SOC span.

    Left-rectangle integration of the (negative) charging current over the
    segment, divided by the SOC gained.
    """
    soc_span = segment.samples[-1].soc - segment.samples[0].soc
    if soc_span < min_soc_span:
        raise ValueError(
            f"SOC span {soc_span:.4f} below threshold {min_soc_span}: uninformative snippet"
        )
    current = np.array([s.current for s in segment.samples])
    if np.all(current >= 0.0):
        raise ValueError("non-negative current throughout: not a charging segment")
    times = np.array([s.time for s in segment.samples])
    charge_as = float(np.sum(-current[:-1] * np.diff(times)))
    return charge_as / 3600.0 / soc_span


def monthly_aggregate(
    segments: Iterable[ChargeSegment],
    stat: str = "median",
    min_events: int = MIN_MONTHLY_EVENTS,
    min_soc_span: float = MIN_SOC_SPAN,
) -> tuple[list[FleetMonthlyRecord], dict[int, int]]:
    """Aggregate per-event capacities into monthly records.

    Both mean and median are populated on every record regardless of
    ``stat`` (which callers use to pick the representative value).  Months
    with fewer than ``min_events`` usable events are omitted; the returned
    mapping reports how many events each omitted month had.  Events whose
    SOC span is too small are skipped.
    """
    if stat not in ("median", "mean"):
        raise ValueError(f"stat must be 'median' or 'mean', got {stat!r}")
    by_month: dict[tuple[str, int, int], list[float]] = {}
    for seg in segments:
        try:
            cap = compute_capacity(seg, min_soc_span=min_soc_span)
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
        if len(caps) < min_events:
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
