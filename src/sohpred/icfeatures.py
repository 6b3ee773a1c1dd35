"""Incremental-capacity curves and per-cycle health indicators.

The IC curve is the derivative of accumulated charge with respect to
terminal voltage during constant-current charging.  Charge is interpolated
onto a uniform voltage grid of fixed-width bins and differenced at the bin
boundaries, so the trapezoidal integral of the curve over its full range
recovers the cycle's total charge exactly.  Indicators extracted per cycle:
crest/pulse/margin/waveform factors and kurtosis of the curve samples, the
peak height, and the area inside a voltage window around the peak.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .hiselect import HISeries, spearman
from .ingest import CycleRecord, SOHSeries

DEFAULT_BIN_WIDTH_V = 0.01
DEFAULT_SG_WINDOW = 21
DEFAULT_SG_ORDER = 3
DEFAULT_PEAK_HALFWIDTH_V = 0.1
DEFAULT_AREA_HALFWIDTHS_V = (0.05, 0.10, 0.15, 0.20)


@dataclass(frozen=True)
class ICCurve:
    """Smoothed or raw dQ/dV samples on an ascending voltage grid."""

    cycle_index: int
    voltage_grid: np.ndarray
    dqdv: np.ndarray
    smoothed: bool = False

    def __post_init__(self) -> None:
        grid = np.asarray(self.voltage_grid, dtype=float)
        dqdv = np.asarray(self.dqdv, dtype=float)
        if grid.ndim != 1 or grid.size < 2 or grid.size != dqdv.size:
            raise ValueError("grid and dqdv must be 1-D, equal length >= 2")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("voltage grid must be strictly increasing")
        if not np.all(np.isfinite(dqdv)):
            raise ValueError("dqdv must be finite everywhere")
        object.__setattr__(self, "voltage_grid", grid)
        object.__setattr__(self, "dqdv", dqdv)


@dataclass(frozen=True)
class PeakDescriptor:
    """Peak location and the integration window around it.

    Bounds are clipped to the grid extent, so for a peak sitting on the
    first or last grid point one bound coincides with the peak voltage.
    """

    peak_voltage: float
    peak_height: float
    lower_bound: float
    upper_bound: float

    def __post_init__(self) -> None:
        if not self.lower_bound <= self.peak_voltage <= self.upper_bound:
            raise ValueError("peak must lie within its bounds")
        if self.lower_bound >= self.upper_bound:
            raise ValueError("lower bound must be below upper bound")


@dataclass(frozen=True)
class FeatureRow:
    """All candidate indicators extracted from one cycle's IC curve."""

    cycle_index: int
    cf: float
    pf: float
    mf: float
    wf: float
    kur: float
    area: float
    peak: float


def compute_ic_curve(
    record: CycleRecord, bin_width: float = DEFAULT_BIN_WIDTH_V
) -> ICCurve:
    """Extract the raw IC curve from one cycle's charge curve.

    The voltage span is partitioned into bins of ``bin_width``; accumulated
    charge is linearly interpolated at the bin boundaries (which also fills
    bins without samples) and differenced, giving charge per volt on the
    boundary grid.
    """
    t, v, q = record.charge_curve.T
    # enforce a monotone voltage axis: keep the running upper envelope
    keep = v >= np.maximum.accumulate(v)
    v_clean, q_clean = v[keep], q[keep]
    v_clean, unique_idx = np.unique(v_clean, return_index=True)
    q_clean = q_clean[unique_idx]
    if v_clean.size < 2:
        raise ValueError("voltage non-monotone: fewer than 2 distinct points survive")

    lo = np.floor(v_clean[0] / bin_width) * bin_width
    n_bins = int(np.ceil((v_clean[-1] - lo) / bin_width - 1e-9))
    if n_bins < 2:
        raise ValueError(f"fewer than 2 occupied bins at bin width {bin_width}")
    edges = lo + bin_width * np.arange(n_bins + 1)
    occupied = np.unique(np.clip((v_clean - lo) // bin_width, 0, n_bins - 1))
    if occupied.size < 2:
        raise ValueError(f"fewer than 2 occupied bins at bin width {bin_width}")

    q_edges = np.interp(edges, v_clean, q_clean)
    dqdv = np.gradient(q_edges, bin_width)
    return ICCurve(record.cycle_index, edges, dqdv, smoothed=False)


@lru_cache(maxsize=None)
def _savgol_hat(window: int, poly_order: int) -> np.ndarray:
    """Smoothing matrix ``V @ pinv(V)`` of one window (Savitzky & Golay 1964).

    ``V`` is the Vandermonde matrix of the window's centred positions, so
    row ``i`` maps the window's samples to the value at position ``i`` of
    their least-squares polynomial of degree ``poly_order``.
    """
    half = window // 2
    vander = np.vander(np.arange(-half, half + 1, dtype=float), poly_order + 1, increasing=True)
    hat = vander @ np.linalg.pinv(vander)
    hat.flags.writeable = False
    return hat


def savitzky_golay(
    curve: ICCurve, window: int = DEFAULT_SG_WINDOW, poly_order: int = DEFAULT_SG_ORDER
) -> ICCurve:
    """Least-squares polynomial smoothing on the uniform voltage grid.

    Edge points come from evaluating the polynomial fitted to the boundary
    window at their positions (SciPy's ``savgol_filter(mode="interp")``).
    """
    n = curve.dqdv.size
    if window % 2 == 0:
        raise ValueError(f"window must be odd, got {window}")
    if window <= poly_order:
        raise ValueError(f"window {window} must exceed polynomial order {poly_order}")
    if window > n:
        raise ValueError(f"window {window} exceeds curve length {n}")
    hat = _savgol_hat(window, poly_order)
    half = window // 2
    dqdv = curve.dqdv
    smoothed = np.empty(n)
    smoothed[half : n - half] = sliding_window_view(dqdv, window) @ hat[half]
    smoothed[:half] = hat[:half] @ dqdv[:window]
    smoothed[n - half :] = hat[half + 1 :] @ dqdv[n - window :]
    return replace(curve, dqdv=smoothed, smoothed=True)


def locate_peak(curve: ICCurve, halfwidth: float = DEFAULT_PEAK_HALFWIDTH_V) -> PeakDescriptor:
    """Find the maximum of a smoothed IC curve.

    Ties break toward lower voltage.  The integration bounds start at
    peak +/- halfwidth, clipped to the grid extent.
    """
    if not curve.smoothed:
        raise ValueError("locate_peak expects a smoothed curve")
    grid = curve.voltage_grid
    best = np.argmax(curve.dqdv)
    peak_v = float(grid[best])
    return PeakDescriptor(
        peak_voltage=peak_v,
        peak_height=float(curve.dqdv[best]),
        lower_bound=max(float(grid[0]), peak_v - halfwidth),
        upper_bound=min(float(grid[-1]), peak_v + halfwidth),
    )


def integrate_area(curve: ICCurve, lower: float, upper: float) -> float:
    """Trapezoidal integral of dQ/dV over [lower, upper] in ampere-hours.

    Values at fractional endpoints are linearly interpolated.
    """
    grid = curve.voltage_grid
    if lower >= upper:
        raise ValueError(f"bounds out of order: [{lower}, {upper}]")
    if lower < grid[0] - 1e-12 or upper > grid[-1] + 1e-12:
        raise ValueError(
            f"bounds [{lower}, {upper}] outside grid [{grid[0]}, {grid[-1]}]"
        )
    lower = max(lower, float(grid[0]))
    upper = min(upper, float(grid[-1]))
    inside = grid[(grid > lower) & (grid < upper)]
    xs = np.concatenate(([lower], inside, [upper]))
    ys = np.interp(xs, grid, curve.dqdv)
    return float(np.trapezoid(ys, xs))


def dimensionless_features(
    curve: ICCurve,
    area_halfwidth: float = DEFAULT_PEAK_HALFWIDTH_V,
) -> FeatureRow:
    """Scalar indicators of one IC curve.

    Crest factor peak/rms, pulse factor peak/mean-abs, margin factor
    peak/(mean of square roots) squared, waveform factor rms/mean-abs,
    excess kurtosis, plus the curve's peak height and the area inside
    ``area_halfwidth`` of the peak.
    """
    a = curve.dqdv
    if a.size < 2:
        raise ValueError("curve must have at least 2 points")
    abs_a = np.abs(a)
    peak_abs = abs_a.max()
    if peak_abs == 0.0:
        raise ValueError("all-zero curve: features undefined")
    rms = np.sqrt(np.mean(a**2))
    mean_abs = np.mean(abs_a)
    root_mean_sq = np.mean(np.sqrt(abs_a)) ** 2
    kur = np.mean(a**4) / np.mean(a**2) ** 2 - 3.0

    if curve.smoothed:
        peak = locate_peak(curve, halfwidth=area_halfwidth)
        area = integrate_area(curve, peak.lower_bound, peak.upper_bound)
        peak_height = peak.peak_height
    else:
        peak_height = float(a.max())
        area = integrate_area(curve, float(curve.voltage_grid[0]), float(curve.voltage_grid[-1]))
    return FeatureRow(
        cycle_index=curve.cycle_index,
        cf=float(peak_abs / rms),
        pf=float(peak_abs / mean_abs),
        mf=float(peak_abs / root_mean_sq),
        wf=float(rms / mean_abs),
        kur=float(kur),
        area=float(area),
        peak=float(peak_height),
    )


@dataclass(frozen=True)
class BoundarySweepResult:
    """Outcome of the area-window sweep."""

    halfwidth: float
    reference_peak: PeakDescriptor
    series: HISeries
    correlations: tuple[tuple[float, float], ...]  # (halfwidth, coefficient)
    skipped: tuple[float, ...]


def sweep_area_boundaries(
    curves: list[ICCurve],
    soh: SOHSeries,
    candidate_halfwidths: tuple[float, ...] = DEFAULT_AREA_HALFWIDTHS_V,
) -> BoundarySweepResult:
    """Pick the area window (around each cycle's own peak) that correlates best.

    For every candidate half-width the per-cycle peak-area series is built
    and correlated with SOH; the half-width with the largest absolute
    coefficient wins.  Degenerate candidates (constant area series) are
    skipped and reported.
    """
    if not candidate_halfwidths:
        raise ValueError("candidate half-width list must be non-empty")
    if len(curves) != soh.values.size:
        raise ValueError("need exactly one curve per SOH value")

    peaks = [locate_peak(c) for c in curves]

    def areas_for(hw: float) -> np.ndarray:
        out = np.empty(len(curves))
        for i, (curve, peak) in enumerate(zip(curves, peaks)):
            lo = max(float(curve.voltage_grid[0]), peak.peak_voltage - hw)
            hi = min(float(curve.voltage_grid[-1]), peak.peak_voltage + hw)
            out[i] = integrate_area(curve, lo, hi)
        return out

    best: tuple[float, float, np.ndarray] | None = None  # |coeff|, halfwidth, series
    correlations: list[tuple[float, float]] = []
    skipped: list[float] = []
    for hw in candidate_halfwidths:
        areas = areas_for(hw)
        coeff, degenerate = spearman(areas, soh.values, return_degenerate=True)
        correlations.append((hw, coeff))
        if degenerate and np.all(areas == areas[0]):
            skipped.append(hw)
            continue
        if best is None or abs(coeff) > best[0]:
            best = (abs(coeff), hw, areas)

    if best is None:
        # every candidate degenerate (constant SOH or constant areas): keep the first
        hw = candidate_halfwidths[0]
        best = (0.0, hw, areas_for(hw))

    _, hw, areas = best
    ref = peaks[0]
    reference = PeakDescriptor(
        peak_voltage=ref.peak_voltage,
        peak_height=ref.peak_height,
        lower_bound=max(float(curves[0].voltage_grid[0]), ref.peak_voltage - hw),
        upper_bound=min(float(curves[0].voltage_grid[-1]), ref.peak_voltage + hw),
    )
    return BoundarySweepResult(
        halfwidth=hw,
        reference_peak=reference,
        series=HISeries(name="Area", values=areas),
        correlations=tuple(correlations),
        skipped=tuple(skipped),
    )
