"""Sparrow search: swarm optimization over bounded mixed spaces.

The population splits into producers (the best-ranked fraction, which
explore), scroungers (which follow the best producer), and randomly chosen
warners (which relocate relative to the global best).  Positions stay
continuous internally; integer dimensions are rounded whenever a position
is evaluated or decoded.  Also provides the hyperparameter domain searched
here and the decoding of its positions into network and training settings.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import blas
from .neuralnet import DualBiGRUSpec, TrainingConfig
from .seeding import derive_rng

WORST_FITNESS = 1e300  # sentinel for failed evaluations; keeps arithmetic finite

# hyperparameter search ranges (lower, upper)
UNIT_RANGE = (25, 200)
EPOCHS_RANGE = (150, 700)
LEARNING_RATE_RANGE = (0.005, 0.015)
BATCH_RANGE = (1, 20)
DROPOUT_RANGE = (0.002, 0.2)
LR_DROP_RATIO = 0.7  # drop period = ratio * max epochs


@dataclass(frozen=True)
class Dimension:
    lower: float
    upper: float
    kind: str = "continuous"  # or "integer"

    def __post_init__(self) -> None:
        if self.lower >= self.upper:
            raise ValueError(f"lower {self.lower} must be below upper {self.upper}")
        if self.kind not in ("continuous", "integer"):
            raise ValueError(f"kind must be continuous or integer, got {self.kind!r}")


@dataclass(frozen=True)
class SearchSpace:
    dims: tuple[Dimension, ...]

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def lower(self) -> np.ndarray:
        return np.array([d.lower for d in self.dims])

    @property
    def upper(self) -> np.ndarray:
        return np.array([d.upper for d in self.dims])

    def clip(self, positions: np.ndarray) -> np.ndarray:
        return np.clip(positions, self.lower, self.upper)

    def quantize(self, position: np.ndarray) -> np.ndarray:
        """Round integer dimensions; continuous ones pass through."""
        out = np.asarray(position, dtype=float).copy()
        for j, dim in enumerate(self.dims):
            if dim.kind == "integer":
                out[j] = np.rint(out[j])
        return out

    def violations(self, position, names: Sequence[str] | None = None) -> list[str]:
        """Human-readable bound violations for every offending dimension, named by
        ``names`` (default ``dimension j``)."""
        problems = []
        for j, (dim, x) in enumerate(zip(self.dims, position)):
            if not dim.lower <= x <= dim.upper:
                name = names[j] if names else f"dimension {j}"
                problems.append(f"{name} = {x} outside [{dim.lower}, {dim.upper}]")
        return problems


@dataclass(frozen=True)
class Sparrow:
    position: np.ndarray
    fitness: float


@dataclass(frozen=True)
class SSAConfig:
    pop_size: int = 6
    max_iter: int = 10
    producer_fraction: float = 0.2
    warner_fraction: float = 0.1
    safety_threshold: float = 0.8
    epsilon: float = 1e-12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pop_size < 2 or self.max_iter < 1:
            raise ValueError("population and iteration count must be positive")
        if not 0.0 < self.producer_fraction < 1.0 or not 0.0 < self.warner_fraction < 1.0:
            raise ValueError("fractions must lie in (0, 1)")
        if not 0.5 <= self.safety_threshold <= 1.0:
            raise ValueError("safety threshold must lie in [0.5, 1]")

    @property
    def n_producers(self) -> int:
        return math.ceil(self.producer_fraction * self.pop_size)

    @property
    def n_warners(self) -> int:
        return math.ceil(self.warner_fraction * self.pop_size)


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    best_fitness: float
    best_position: np.ndarray
    evaluations: int  # candidates scored in this iteration
    failures: int  # of those, how many were scored WORST_FITNESS
    repeats: int  # of those, how many took the stored score of an earlier candidate


class WorkerLostError(RuntimeError):
    """A worker process of a parallel search died before returning a score."""


def _score(fitness: Callable[[np.ndarray], float], space: SearchSpace, row: np.ndarray) -> float:
    """One candidate's fitness; a failure or a non-finite value gets the sentinel."""
    try:
        value = float(fitness(space.quantize(row)))
    except Exception:
        return WORST_FITNESS
    return value if np.isfinite(value) else WORST_FITNESS


_worker_task = None  # (fitness, space), set by _init_worker in each forked worker


def _init_worker(fitness: Callable[[np.ndarray], float], space: SearchSpace) -> None:
    global _worker_task
    _worker_task = (fitness, space)


def _score_in_worker(row: np.ndarray) -> float:
    return _score(*_worker_task, row)


@contextlib.contextmanager
def fork_pool(workers: int, lost: str, initializer=None, initargs=()):
    """A pool of ``workers`` forked processes; a worker lost raises ``WorkerLostError(lost)``.

    It serves a search's scoring, fleet's log readers and extract's span
    readers.  The workers are forked, not spawned, so they inherit what this process
    holds (``initializer`` and ``initargs`` need not pickle) and none
    re-imports NumPy.  ``fork`` needs a caller that runs no threads of its
    own: the pool forks every worker on the first submit, before its
    management thread, and OpenBLAS stops and restarts its threads around a
    fork.  Leaving the body cancels what is still queued.  The imports stay
    here: a serial run never pays for them.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=initializer,
        initargs=initargs,
    )
    try:
        yield pool
    except BrokenProcessPool as exc:
        raise WorkerLostError(lost) from exc
    finally:
        pool.shutdown(cancel_futures=True)


def _evaluate(
    fitness: Callable[[np.ndarray], float],
    positions: np.ndarray,
    space: SearchSpace,
    pool=None,
    scores: dict[bytes, float] | None = None,
) -> np.ndarray:
    """Score every row, here or on ``pool`` (from :func:`fork_pool`).

    ``scores`` maps a quantized position's bytes to its score.  Only rows
    whose quantized position it lacks are scored, once each and in row
    order; their scores are added to it.
    """
    scores = {} if scores is None else scores
    keys = [space.quantize(row).tobytes() for row in positions]
    unseen = {}
    for key, row in zip(keys, positions):
        if key not in scores:
            unseen.setdefault(key, row)
    if pool is None:
        scores.update((key, _score(fitness, space, row)) for key, row in unseen.items())
    else:
        scores.update(zip(unseen, pool.map(_score_in_worker, unseen.values())))
    return np.array([scores[key] for key in keys])


def initialize_population(
    space: SearchSpace,
    config: SSAConfig,
    fitness: Callable[[np.ndarray], float],
    rng: np.random.Generator,
    pool=None,
    scores: dict[bytes, float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform start (integers by rounded uniform), evaluated and sorted."""
    positions = rng.uniform(
        space.lower, space.upper, size=(config.pop_size, space.ndim)
    )
    for j, dim in enumerate(space.dims):
        if dim.kind == "integer":
            positions[:, j] = np.rint(positions[:, j])
    fitnesses = _evaluate(fitness, positions, space, pool, scores)
    order = np.argsort(fitnesses, kind="stable")
    return positions[order], fitnesses[order]


def update_producers(
    positions: np.ndarray,
    config: SSAConfig,
    space: SearchSpace,
    rng: np.random.Generator,
) -> np.ndarray:
    """New positions for the producer block (ranks 1..n_producers).

    Below the safety threshold each producer shrinks multiplicatively with
    a rate set by its rank; above it, it takes a common normal step on
    every coordinate.
    """
    n_prod = config.n_producers
    out = positions[:n_prod].copy()
    r2 = rng.random()
    if r2 < config.safety_threshold:
        for i in range(n_prod):
            alpha = 1.0 - rng.random()  # (0, 1]
            out[i] *= math.exp(-(i + 1) / (alpha * config.max_iter))
    else:
        for i in range(n_prod):
            out[i] += rng.standard_normal()
    return space.clip(out)


def pm_one_pseudoinverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a +/-1 row vector: a / (a . a)."""
    a = np.asarray(a, dtype=float)
    return a / float(a @ a)


def update_scroungers(
    positions: np.ndarray,
    producer_best: np.ndarray,
    config: SSAConfig,
    space: SearchSpace,
    rng: np.random.Generator,
) -> np.ndarray:
    """New positions for the scrounger block (ranks after the producers).

    The worse half jumps to a normal scale factor around the worst
    position; the better half moves next to the best producer with a
    random +/-1 direction pattern scaled by its pseudo-inverse.
    """
    n, ndim = positions.shape
    n_prod = config.n_producers
    out = positions[n_prod:].copy()
    worst = positions[-1]
    for row, rank in enumerate(range(n_prod + 1, n + 1)):
        if rank > n / 2:
            q = rng.standard_normal()
            out[row] = q * np.exp((worst - out[row]) / rank**2)
        else:
            a = rng.integers(0, 2, size=ndim) * 2.0 - 1.0
            out[row] = producer_best + np.abs(out[row] - producer_best) * pm_one_pseudoinverse(a)
    return space.clip(out)


def update_warners(
    positions: np.ndarray,
    fitnesses: np.ndarray,
    best: Sparrow,
    worst: Sparrow,
    config: SSAConfig,
    space: SearchSpace,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Relocate randomly chosen warners; returns (positions, chosen indices).

    A warner doing worse than the global best moves toward the best
    position; one already at the best fitness steps away from the worst,
    with the step damped by its fitness gap to the worst.
    """
    n = positions.shape[0]
    chosen = rng.choice(n, size=min(config.n_warners, n), replace=False)
    out = positions.copy()
    for i in chosen:
        if fitnesses[i] > best.fitness:
            beta = rng.standard_normal()
            out[i] = best.position + beta * np.abs(positions[i] - best.position)
        else:
            k = rng.uniform(-1.0, 1.0)
            denom = (fitnesses[i] - worst.fitness) + config.epsilon
            out[i] = positions[i] + k * (np.abs(positions[i] - worst.position) / denom)
    return space.clip(out), chosen


def optimize(
    space: SearchSpace,
    config: SSAConfig,
    fitness: Callable[[np.ndarray], float],
    jobs: int = 1,
) -> tuple[np.ndarray, float, list[IterationRecord]]:
    """Run the full loop; returns (best position, best fitness, history).

    The best position is reported quantized (how it was evaluated).  The
    best-fitness history is monotone non-increasing by construction.

    The fitness must be a pure function of the quantized position, whatever
    ``jobs`` is: each distinct quantized position is scored once per search,
    and a candidate that lands on it again takes the stored score (a stored
    failure counts as a failure again).  With ``jobs > 1`` the candidates of
    every iteration are scored on one pool of forked worker processes, with
    the same results as with ``jobs == 1``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    rng = derive_rng(config.seed, "ssa")
    scores: dict[bytes, float] = {}

    def record(t: int, best: Sparrow, fitnesses: np.ndarray, known: int) -> IterationRecord:
        failures = int(np.count_nonzero(fitnesses == WORST_FITNESS))
        repeats = fitnesses.size - (len(scores) - known)
        return IterationRecord(
            t, best.fitness, best.position.copy(), fitnesses.size, failures, repeats
        )

    with contextlib.ExitStack() as stack:
        pool = None
        if jobs > 1:
            # the workers share the cores, so each runs its BLAS on one thread:
            # two workers with two OpenBLAS threads each on 2 cores made a
            # 128-unit search 3.5 times slower than one worker.  The workers
            # inherit the one thread when they fork; setting it inside each
            # worker instead made a pool of desk-sized fits a quarter slower.
            stack.enter_context(blas.one_thread())
            pool = stack.enter_context(fork_pool(
                min(jobs, config.pop_size),
                "the search lost a worker process before it returned a score",
                _init_worker, (fitness, space),
            ))
        positions, fitnesses = initialize_population(space, config, fitness, rng, pool, scores)
        best = Sparrow(space.quantize(positions[0]), float(fitnesses[0]))
        history = [record(0, best, fitnesses, 0)]

        for t in range(config.max_iter):
            moved = positions.copy()
            moved[: config.n_producers] = update_producers(positions, config, space, rng)
            moved[config.n_producers :] = update_scroungers(
                positions, moved[0], config, space, rng
            )
            worst = Sparrow(positions[-1].copy(), float(fitnesses[-1]))
            moved, _ = update_warners(moved, fitnesses, best, worst, config, space, rng)

            known = len(scores)
            fitnesses = _evaluate(fitness, moved, space, pool, scores)
            order = np.argsort(fitnesses, kind="stable")
            positions = moved[order]
            fitnesses = fitnesses[order]
            if fitnesses[0] < best.fitness:
                best = Sparrow(space.quantize(positions[0]), float(fitnesses[0]))
            history.append(record(t + 1, best, fitnesses, known))
    return best.position.copy(), best.fitness, history


def encode_hyperparameters(
    unit_range: tuple[int, int] = UNIT_RANGE,
    epochs_range: tuple[int, int] = EPOCHS_RANGE,
    lr_range: tuple[float, float] = LEARNING_RATE_RANGE,
    batch_range: tuple[int, int] = BATCH_RANGE,
    dropout_range: tuple[float, float] = DROPOUT_RANGE,
) -> SearchSpace:
    """The 11-dimensional hyperparameter domain.

    Order: four GRU unit counts, max epochs, learning rate, batch size,
    four dropout rates.  The learning-rate drop period is derived as
    round(0.7 * max epochs) and the drop factor is TrainingConfig's
    default, so neither is searched.
    """
    unit = Dimension(*unit_range, "integer")
    dropout = Dimension(*dropout_range, "continuous")
    return SearchSpace(
        dims=(
            unit,
            unit,
            unit,
            unit,
            Dimension(*epochs_range, "integer"),
            Dimension(*lr_range, "continuous"),
            Dimension(*batch_range, "integer"),
            dropout,
            dropout,
            dropout,
            dropout,
        )
    )


def decode(
    position: Sequence[float] | np.ndarray,
    space: SearchSpace | None = None,
    window_length: int = 5,
    seed: int = 0,
) -> tuple[DualBiGRUSpec, TrainingConfig]:
    """Turn a position vector into an (unbuilt) network spec and training config."""
    space = space if space is not None else encode_hyperparameters()
    position = np.asarray(position, dtype=float)
    if position.shape != (space.ndim,):
        raise ValueError(f"position must have {space.ndim} entries")
    q = space.quantize(position)
    problems = space.violations(q)
    if problems:
        raise ValueError("position outside bounds: " + "; ".join(problems))
    units = tuple(int(v) for v in q[0:4])
    max_epochs = int(q[4])
    learning_rate = float(q[5])
    batch_size = int(q[6])
    dropouts = tuple(float(v) for v in q[7:11])
    spec = DualBiGRUSpec(
        window_length=window_length,
        gru_units=units,
        dropout_rates=dropouts,
    )
    training = TrainingConfig(
        max_epochs=max_epochs,
        learning_rate=learning_rate,
        lr_drop_period=int(round(LR_DROP_RATIO * max_epochs)),
        batch_size=batch_size,
        seed=seed,
    )
    return spec, training

