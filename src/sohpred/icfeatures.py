"""Incremental-capacity curves and per-cycle health indicators.

The IC curve is the derivative of accumulated charge with respect to
terminal voltage during constant-current charging.  Charge is interpolated
onto a uniform voltage grid of fixed-width bins and differenced at the bin
boundaries, so the trapezoidal integral of the curve over its full range
recovers the cycle's total charge exactly.  Indicators extracted per cycle:
crest/pulse/margin/waveform factors and kurtosis of the curve samples, the
peak height, and the area inside a voltage window around the peak.

Every step after the IC curve works on a list of curves at once.  Curves of
equal length are smoothed and reduced as one 2-D stack, and area windows
with equal numbers of interior grid points are integrated together; a cell
of 300 cycles has 4-5 curve lengths.  The per-curve functions are a batch
of one, so a curve gets the same bits alone as in its cell.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator

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
        if (grid[1:] <= grid[:-1]).any():
            raise ValueError("voltage grid must be strictly increasing")
        if not np.isfinite(dqdv).all():
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
    boundary grid.  A cycle whose curve cannot be built fails naming it.
    """
    t, v, q = record.charge_curve.T
    # a monotone voltage axis with one sample per voltage: the running upper
    # envelope, taking the first sample of each run of equal voltages as
    # np.unique(return_index=True) would.  Those are the first sample and every
    # one above all before it, so one comparison finds them, without a sort.
    rises = np.ones(v.size, dtype=bool)
    rises[1:] = v[1:] > np.maximum.accumulate(v)[:-1]
    v_clean, q_clean = v[rises], q[rises]
    cycle = f"cycle {record.cycle_index}"
    if v_clean.size < 2:
        raise ValueError(f"{cycle}: voltage non-monotone: fewer than 2 distinct points survive")

    lo = np.floor(v_clean[0] / bin_width) * bin_width
    n_bins = int(np.ceil((v_clean[-1] - lo) / bin_width - 1e-9))
    # floor division is exact, so the bins rise with the voltage, and fewer
    # than 2 of them are occupied when the first and last samples share one
    first, last = np.clip((v_clean[[0, -1]] - lo) // bin_width, 0, n_bins - 1)
    if n_bins < 2 or first == last:
        raise ValueError(f"{cycle}: fewer than 2 occupied bins at bin width {bin_width}")
    edges = lo + bin_width * np.arange(n_bins + 1)

    q_edges = np.interp(edges, v_clean, q_clean)
    dqdv = np.gradient(q_edges, bin_width)
    return ICCurve(record.cycle_index, edges, dqdv, smoothed=False)


def _stacks(curves: list[ICCurve]) -> Iterator[tuple[list[int], np.ndarray, np.ndarray]]:
    """The curves grouped by length, in order of first appearance.

    Each group is its positions in ``curves`` and their grids and dQ/dV
    values stacked as two 2-D arrays, one row per curve.  The groups are
    made one at a time, so one group's copies are alive at once.
    """
    groups: dict[int, list[int]] = {}
    for i, curve in enumerate(curves):
        groups.setdefault(curve.dqdv.size, []).append(i)
    for rows in groups.values():
        yield (rows, np.array([curves[i].voltage_grid for i in rows]),
               np.array([curves[i].dqdv for i in rows]))


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


def smooth_curves(
    curves: list[ICCurve], window: int = DEFAULT_SG_WINDOW, poly_order: int = DEFAULT_SG_ORDER
) -> list[ICCurve]:
    """Least-squares polynomial smoothing of each curve on its uniform voltage grid.

    Edge points come from evaluating the polynomial fitted to the boundary
    window at their positions (SciPy's ``savgol_filter(mode="interp")``).
    Interior points are each window's product with the hat matrix's middle
    row, and edge points the edge rows' products with the boundary window;
    every product takes one stack of equal-length curves at once.
    """
    if window % 2 == 0:
        raise ValueError(f"window must be odd, got {window}")
    if window <= poly_order:
        raise ValueError(f"window {window} must exceed polynomial order {poly_order}")
    if poly_order < 0:
        raise ValueError(f"polynomial order must be >= 0, got {poly_order}")
    hat = _savgol_hat(window, poly_order)
    half = window // 2
    smoothed = list(curves)
    for rows, _, dqdv in _stacks(curves):
        n = dqdv.shape[1]
        if window > n:
            cycle = curves[rows[0]].cycle_index
            raise ValueError(f"cycle {cycle}: window {window} exceeds curve length {n}")
        out = np.empty_like(dqdv)
        out[:, half : n - half] = sliding_window_view(dqdv, window, axis=1) @ hat[half]
        out[:, :half] = np.matmul(hat[:half], dqdv[:, :window, None])[..., 0]
        out[:, n - half :] = np.matmul(hat[half + 1 :], dqdv[:, n - window :, None])[..., 0]
        for i, values in zip(rows, out):
            smoothed[i] = replace(curves[i], dqdv=values, smoothed=True)
    return smoothed


def savitzky_golay(
    curve: ICCurve, window: int = DEFAULT_SG_WINDOW, poly_order: int = DEFAULT_SG_ORDER
) -> ICCurve:
    """One curve through :func:`smooth_curves`."""
    return smooth_curves([curve], window, poly_order)[0]


def _peak_windows(grid: np.ndarray, dqdv: np.ndarray, halfwidths: np.ndarray):
    """Each row's maximum and the windows of ``halfwidths`` around it, clipped to its grid.

    Returns the peak voltages and heights, one per row, and the lower and
    upper bounds, one row per curve and one column per half-width.  Ties
    break toward lower voltage.
    """
    rows = np.arange(len(grid))
    best = np.argmax(dqdv, axis=1)
    voltage = grid[rows, best]
    lower = np.maximum(grid[:, :1], voltage[:, None] - halfwidths)
    upper = np.minimum(grid[:, -1:], voltage[:, None] + halfwidths)
    return voltage, dqdv[rows, best], lower, upper


def locate_peak(curve: ICCurve, halfwidth: float = DEFAULT_PEAK_HALFWIDTH_V) -> PeakDescriptor:
    """Find the maximum of a smoothed IC curve.

    Ties break toward lower voltage.  The integration bounds start at
    peak +/- halfwidth, clipped to the grid extent.
    """
    if not curve.smoothed:
        raise ValueError("locate_peak expects a smoothed curve")
    voltage, height, lower, upper = _peak_windows(
        curve.voltage_grid[None], curve.dqdv[None], np.array([halfwidth])
    )
    return PeakDescriptor(
        float(voltage[0]), float(height[0]), float(lower[0, 0]), float(upper[0, 0])
    )


def _areas(curves: list[ICCurve], lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Trapezoidal integrals of dQ/dV in ampere-hours, one per window.

    Row ``i`` of ``lower`` and ``upper`` holds the windows of ``curves[i]``.
    A window's points are its two bounds, whose values one ``np.interp``
    per curve gives, and the grid points strictly inside it, whose values
    are the curve's own; windows with equal numbers of inside points are
    integrated as one stack.  Each area has the bits of ``np.trapezoid``
    over those points.
    """
    sizes = np.array([c.dqdv.size for c in curves])
    # shorter grids padded with +inf, which no window reaches
    grid = np.full((len(curves), sizes.max(initial=0)), np.inf)
    dqdv = np.zeros(grid.shape)
    for i, curve in enumerate(curves):
        grid[i, : sizes[i]] = curve.voltage_grid
        dqdv[i, : sizes[i]] = curve.dqdv
    first, last = grid[:, :1], grid[np.arange(len(curves)), sizes - 1][:, None]
    for problem, bad in (
        ("bounds out of order", lower >= upper),
        ("bounds outside grid", (lower < first - 1e-12) | (upper > last + 1e-12)),
    ):
        if bad.any():
            i, k = np.argwhere(bad)[0]
            raise ValueError(
                f"cycle {curves[i].cycle_index}: {problem}: [{float(lower[i, k])}, "
                f"{float(upper[i, k])}] on grid [{float(first[i, 0])}, {float(last[i, 0])}]"
            )
    bounds = np.stack((np.maximum(lower, first), np.minimum(upper, last)))
    ends = np.empty(bounds.shape)
    for i, curve in enumerate(curves):
        ends[:, i] = np.interp(bounds[:, i], curve.voltage_grid, curve.dqdv)
    # each window's grid points strictly inside it: `inside` of them from `start`
    start = np.sum(grid[:, None, :] <= bounds[0][..., None], axis=-1)
    inside = np.sum(grid[:, None, :] < bounds[1][..., None], axis=-1) - start
    areas = np.empty(lower.shape)
    for m in np.unique(inside):
        i, k = np.nonzero(inside == m)
        cols = start[i, k, None] + np.arange(m)
        xs = np.concatenate((bounds[0][i, k, None], grid[i[:, None], cols], bounds[1][i, k, None]), axis=1)
        ys = np.concatenate((ends[0][i, k, None], dqdv[i[:, None], cols], ends[1][i, k, None]), axis=1)
        areas[i, k] = np.trapezoid(ys, xs, axis=-1)
    return areas


def integrate_area(curve: ICCurve, lower: float, upper: float) -> float:
    """Trapezoidal integral of dQ/dV over [lower, upper] in ampere-hours.

    Values at fractional endpoints are linearly interpolated.
    """
    return float(_areas([curve], np.array([[lower]]), np.array([[upper]]))[0, 0])


def _libm_squares(values: np.ndarray) -> np.ndarray:
    """Each value squared as a NumPy scalar squares it: by the C library's ``pow``.

    An array's ``** 2`` is one correctly rounded product, which differs from
    ``pow`` in about one value in a thousand.  The features have always
    squared scalar means; squared as an array, one kurtosis of a generated
    300-cycle cell moved by an ulp.
    """
    return np.array([v**2 for v in values.tolist()])


def feature_rows(
    curves: list[ICCurve], area_halfwidth: float = DEFAULT_PEAK_HALFWIDTH_V
) -> list[FeatureRow]:
    """Scalar indicators of each IC curve.

    Crest factor peak/rms, pulse factor peak/mean-abs, margin factor
    peak/(mean of square roots) squared, waveform factor rms/mean-abs,
    excess kurtosis, plus the curve's peak height and the area inside
    ``area_halfwidth`` of the peak (over the whole grid for a raw curve).
    Equal-length curves are reduced as one stack, along its rows.
    """
    values = np.empty((len(curves), 7))  # cf pf mf wf kur area peak
    lower, upper = np.empty((len(curves), 1)), np.empty((len(curves), 1))
    for rows, grid, a in _stacks(curves):
        abs_a = np.abs(a)
        peak_abs = abs_a.max(axis=1)
        if not peak_abs.all():
            cycle = curves[rows[int(np.argmin(peak_abs))]].cycle_index
            raise ValueError(f"cycle {cycle}: all-zero curve: features undefined")
        mean_sq = np.mean(a**2, axis=1)
        rms = np.sqrt(mean_sq)
        mean_abs = np.mean(abs_a, axis=1)
        root_mean_sq = _libm_squares(np.mean(np.sqrt(abs_a), axis=1))
        kur = np.mean(a**4, axis=1) / _libm_squares(mean_sq) - 3.0
        _, height, lo, hi = _peak_windows(grid, a, np.array([area_halfwidth]))
        raw = ~np.array([curves[i].smoothed for i in rows])
        lo[raw], hi[raw] = grid[raw, :1], grid[raw, -1:]
        lower[rows], upper[rows] = lo, hi
        values[rows, :5] = np.column_stack(
            (peak_abs / rms, peak_abs / mean_abs, peak_abs / root_mean_sq, rms / mean_abs, kur)
        )
        values[rows, 6] = height
    values[:, 5] = _areas(curves, lower, upper)[:, 0]
    return [FeatureRow(c.cycle_index, *row) for c, row in zip(curves, values.tolist())]


def dimensionless_features(
    curve: ICCurve,
    area_halfwidth: float = DEFAULT_PEAK_HALFWIDTH_V,
) -> FeatureRow:
    """One curve through :func:`feature_rows`."""
    return feature_rows([curve], area_halfwidth)[0]


@dataclass(frozen=True)
class BoundarySweepResult:
    """Outcome of the area-window sweep."""

    halfwidth: float
    reference_peak: PeakDescriptor
    series: HISeries
    correlations: tuple[tuple[float, float], ...]  # (halfwidth, coefficient)


def sweep_area_boundaries(
    curves: list[ICCurve],
    soh: SOHSeries,
    candidate_halfwidths: tuple[float, ...] = DEFAULT_AREA_HALFWIDTHS_V,
) -> BoundarySweepResult:
    """Pick the area window (around each cycle's own peak) that correlates best.

    For every candidate half-width the per-cycle peak-area series is built
    and correlated with SOH; the half-width with the largest absolute
    coefficient wins.  Degenerate candidates (constant area series) are
    skipped.  Every curve's areas for every half-width are integrated in
    one pass.
    """
    if not candidate_halfwidths:
        raise ValueError("candidate half-width list must be non-empty")
    if len(curves) != soh.values.size:
        raise ValueError("need exactly one curve per SOH value")
    if not all(c.smoothed for c in curves):
        raise ValueError("locate_peak expects a smoothed curve")

    shape = (len(curves), len(candidate_halfwidths))
    lower, upper = np.empty(shape), np.empty(shape)
    for rows, grid, dqdv in _stacks(curves):
        _, _, lower[rows], upper[rows] = _peak_windows(grid, dqdv, np.array(candidate_halfwidths))
    by_halfwidth = np.ascontiguousarray(_areas(curves, lower, upper).T)

    best: tuple[float, float, np.ndarray] | None = None  # |coeff|, halfwidth, series
    correlations: list[tuple[float, float]] = []
    for hw, areas in zip(candidate_halfwidths, by_halfwidth):
        coeff, degenerate = spearman(areas, soh.values, return_degenerate=True)
        correlations.append((hw, coeff))
        if degenerate and np.all(areas == areas[0]):
            continue
        if best is None or abs(coeff) > best[0]:
            best = (abs(coeff), hw, areas)

    if best is None:
        # every candidate degenerate (constant SOH or constant areas): keep the first
        best = (0.0, candidate_halfwidths[0], by_halfwidth[0])

    _, hw, areas = best
    return BoundarySweepResult(
        halfwidth=hw,
        reference_peak=locate_peak(curves[0], hw),
        series=HISeries(name="Area", values=areas),
        correlations=tuple(correlations),
    )
