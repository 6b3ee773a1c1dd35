"""Health-indicator conditioning and selection.

Candidate indicator series are min-max normalized, denoised by truncated
SVD of their Hankel embedding, and ranked by correlation magnitude against
the SOH series.  The correlation is the centered-product coefficient
evaluated on the raw values; an average-rank transform variant is
available behind a flag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ingest import SOHSeries

HI_NAMES = ("MF", "PF", "Kur", "CF", "WF", "Area", "Peak")
DEFAULT_ENERGY_THRESHOLD = 0.95


@dataclass(frozen=True)
class HISeries:
    """One named health-indicator series with processing provenance."""

    name: str
    values: np.ndarray
    normalized: bool = False
    denoised: bool = False

    def __post_init__(self) -> None:
        if self.name not in HI_NAMES:
            raise ValueError(f"unknown HI name {self.name!r}, expected one of {HI_NAMES}")
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D array")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class CorrelationReport:
    """Correlation of each candidate indicator with SOH, plus the ranking."""

    entries: tuple[tuple[str, float], ...]
    ranking: tuple[str, ...]

    def coefficient(self, name: str) -> float:
        for entry_name, coeff in self.entries:
            if entry_name == name:
                return coeff
        raise KeyError(name)


def min_max_normalize(series: HISeries) -> HISeries:
    """Scale values to [0, 1]; a constant series maps to all 0.5."""
    v = series.values
    lo, hi = v.min(), v.max()
    if hi == lo:
        scaled = np.full_like(v, 0.5)
    else:
        scaled = (v - lo) / (hi - lo)
    return replace(series, values=scaled, normalized=True)


def hankel_matrix(values: np.ndarray) -> np.ndarray:
    """Trajectory matrix H[i, j] = values[i + j], maximally square."""
    values = np.asarray(values, dtype=float)
    n = values.size
    length = n // 2 + 1
    k = n - length + 1
    idx = np.arange(length)[:, None] + np.arange(k)[None, :]
    return values[idx]


def hankel_svd_denoise(
    series: HISeries, rank: int | float = DEFAULT_ENERGY_THRESHOLD
) -> HISeries:
    """Denoise by truncated SVD of the Hankel embedding.

    ``rank`` is either the number of singular triplets to keep, or an
    energy threshold in (0, 1): the smallest k whose cumulative squared
    singular values reach that fraction of the total.  Reconstruction is
    by anti-diagonal averaging.
    """
    n = len(series)
    if n < 4:
        raise ValueError(f"series too short to denoise (n={n} < 4)")
    H = hankel_matrix(series.values)
    U, s, Vt = np.linalg.svd(H, full_matrices=False)
    if isinstance(rank, (int, np.integer)) and not isinstance(rank, bool):
        k = int(rank)
        if k < 1:
            raise ValueError("rank must be a positive integer")
        k = min(k, s.size)
    else:
        threshold = float(rank)
        if not 0.0 < threshold < 1.0:
            raise ValueError("energy threshold must lie in (0, 1)")
        energy = np.cumsum(s**2) / np.sum(s**2)
        k = int(np.searchsorted(energy, threshold) + 1)
        k = min(k, s.size)
    approx = (U[:, :k] * s[:k]) @ Vt[:k]

    # each anti-diagonal summed in row order, as np.add.at would
    length, width = approx.shape
    offsets = (np.arange(length)[:, None] + np.arange(width)).ravel()
    sums = np.bincount(offsets, weights=approx.ravel())
    return replace(series, values=sums / np.bincount(offsets), denoised=True)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their mean rank; all NaN if any value is NaN."""
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def spearman(
    x: np.ndarray,
    y: np.ndarray,
    *,
    ranked: bool = False,
    return_degenerate: bool = False,
) -> float | tuple[float, bool]:
    """Centered-product correlation of two equal-length series.

    With ``ranked=True`` both series are first replaced by their average
    ranks.  A constant series makes the coefficient undefined; 0.0 is
    returned then, flagged when ``return_degenerate`` is set.  A NaN or
    infinite value raises ``ValueError``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"length mismatch: {x.shape} vs {y.shape}")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("series holds a non-finite value")
    if ranked:
        x = _average_ranks(x)
        y = _average_ranks(y)
    # tested before centering: a mean need not be exact (0.1 three times
    # averages to 0.10000000000000002), so a centered constant is not all 0
    constant = x.min() == x.max() or y.min() == y.max()
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt(np.sum(dx**2))
    sy = np.sqrt(np.sum(dy**2))
    if constant or sx == 0.0 or sy == 0.0:  # a spread too small to square is 0.0 too
        return (0.0, True) if return_degenerate else 0.0
    coeff = float(np.sum(dx * dy) / (sx * sy))
    coeff = min(1.0, max(-1.0, coeff))
    return (coeff, False) if return_degenerate else coeff


def rank_his(
    candidates: list[HISeries],
    soh: SOHSeries,
    *,
    denoise_rank: int | float = DEFAULT_ENERGY_THRESHOLD,
    ranked_correlation: bool = False,
) -> CorrelationReport:
    """Normalize, denoise, and correlate each candidate against SOH.

    The ranking is by absolute coefficient, descending; ties fall back to
    the fixed name order ``HI_NAMES``.
    """
    n = soh.values.size
    entries = []
    for cand in candidates:
        if len(cand) != n:
            raise ValueError(
                f"candidate {cand.name} has length {len(cand)}, SOH has {n}"
            )
        if not np.all(np.isfinite(cand.values)):
            raise ValueError(f"candidate {cand.name} holds a non-finite value")
        processed = hankel_svd_denoise(min_max_normalize(cand), rank=denoise_rank)
        coeff = spearman(processed.values, soh.values, ranked=ranked_correlation)
        entries.append((cand.name, coeff))

    order = sorted(
        range(len(entries)),
        key=lambda i: (-abs(entries[i][1]), HI_NAMES.index(entries[i][0])),
    )
    ranking = tuple(entries[i][0] for i in order)
    return CorrelationReport(entries=tuple(entries), ranking=ranking)


def select_hi(
    report: CorrelationReport, candidates: list[HISeries], top_k: int = 1
) -> list[HISeries]:
    """Return the top-k candidates in ranking order."""
    if top_k > len(candidates):
        raise ValueError(f"top_k={top_k} exceeds {len(candidates)} candidates")
    by_name = {c.name: c for c in candidates}
    return [by_name[name] for name in report.ranking[:top_k]]
