import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import encode

from sohpred import blas, ssa
from sohpred.ssa import (
    Dimension,
    SearchSpace,
    Sparrow,
    SSAConfig,
    decode,
    encode_hyperparameters,
    initialize_population,
    optimize,
    pm_one_pseudoinverse,
    update_producers,
    update_scroungers,
    update_warners,
)


def openblas_threads(_=None):
    """The thread count NumPy's OpenBLAS reports in this process."""
    get, _ = blas.openblas_threads()
    return get()


def box(ndim=3, lo=-5.0, hi=5.0):
    return SearchSpace(dims=tuple(Dimension(lo, hi) for _ in range(ndim)))


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def odd_first_raises(x):
    """Fails wherever the integer first coordinate is odd."""
    if int(x[0]) % 2:
        raise RuntimeError("odd first coordinate")
    return sphere(x)


def exits_on_positive_first(x):
    """Kills the process it runs in wherever the first coordinate is positive."""
    if x[0] > 0:
        os._exit(3)
    return sphere(x)


class StubRng:
    """Deterministic stand-in feeding preset values to the update rules."""

    def __init__(self, random_values=(), normal_values=(), uniform_values=(), pm_one=None):
        self._random = list(random_values)
        self._normal = list(normal_values)
        self._uniform = list(uniform_values)
        self._pm_one = pm_one

    def random(self):
        return self._random.pop(0)

    def standard_normal(self):
        return self._normal.pop(0)

    def uniform(self, lo, hi):
        return self._uniform.pop(0)

    def integers(self, lo, hi, size=None):
        # used only for the +/-1 pattern: 0 -> -1, 1 -> +1
        return np.asarray(self._pm_one)

    def choice(self, n, size, replace):
        return np.arange(size)


class TestInitialize:
    def test_within_bounds_and_sorted(self):
        space = box(4)
        config = SSAConfig(pop_size=10, max_iter=5, seed=1)
        rng = np.random.default_rng(0)
        positions, fitnesses = initialize_population(space, config, sphere, rng)
        assert np.all(positions >= space.lower) and np.all(positions <= space.upper)
        assert np.all(np.diff(fitnesses) >= 0)
        assert fitnesses[0] <= np.mean(fitnesses)

    def test_same_seed_same_population(self):
        space = box()
        config = SSAConfig(pop_size=6, max_iter=5, seed=1)
        a, _ = initialize_population(space, config, sphere, np.random.default_rng(42))
        b, _ = initialize_population(space, config, sphere, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_integer_dims_start_on_grid(self):
        space = SearchSpace(dims=(Dimension(1, 9, "integer"), Dimension(0.0, 1.0)))
        config = SSAConfig(pop_size=8, max_iter=5, seed=1)
        positions, _ = initialize_population(space, config, sphere, np.random.default_rng(3))
        assert np.array_equal(positions[:, 0], np.rint(positions[:, 0]))

    def test_failing_fitness_gets_sentinel(self):
        def bad(x):
            raise RuntimeError("boom")

        space = box()
        config = SSAConfig(pop_size=4, max_iter=2, seed=0)
        _, fitnesses = initialize_population(space, config, bad, np.random.default_rng(0))
        assert np.all(fitnesses == ssa.WORST_FITNESS)


class TestUpdateProducers:
    def test_shrink_branch_exact_factor(self):
        # alert below threshold, alpha = 1, rank 1, 10 iterations: factor e^{-0.1}
        space = box()
        config = SSAConfig(pop_size=5, max_iter=10, producer_fraction=0.2, seed=0)
        positions = np.full((5, 3), 2.0)
        rng = StubRng(random_values=[0.1, 0.0])  # r2 = 0.1 < 0.8, then alpha = 1 - 0
        out = update_producers(positions, config=config, space=space, rng=rng)
        assert out.shape == (1, 3)
        assert np.allclose(out[0], 2.0 * math.exp(-0.1))

    def test_noise_branch_zero_step_keeps_position(self):
        space = box()
        config = SSAConfig(pop_size=5, max_iter=10, seed=0)
        positions = np.full((5, 3), 1.5)
        rng = StubRng(random_values=[0.95], normal_values=[0.0])  # r2 >= ST, Q = 0
        out = update_producers(positions, config=config, space=space, rng=rng)
        assert np.array_equal(out[0], positions[0])

    @given(seed=st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_bounds_hold(self, seed):
        space = box(3, -1.0, 1.0)
        config = SSAConfig(pop_size=6, max_iter=10, seed=0)
        rng = np.random.default_rng(seed)
        positions = rng.uniform(-1, 1, size=(6, 3))
        out = update_producers(positions, config=config, space=space, rng=rng)
        assert np.all(out >= -1.0) and np.all(out <= 1.0)


class TestUpdateScroungers:
    def test_worse_half_jump_toward_worst(self):
        # a scrounger sitting exactly at the worst position, Q = 1: exp(0) = 1 everywhere
        space = box(3, -5.0, 5.0)
        config = SSAConfig(pop_size=4, max_iter=10, producer_fraction=0.2, seed=0)
        positions = np.vstack([np.zeros(3), np.ones(3), 2 * np.ones(3), 3 * np.ones(3)])
        positions[2] = positions[-1]  # rank-3 sparrow sits at the worst position
        rng = StubRng(normal_values=[1.0, 1.0], pm_one=[1, 1, 1])
        out = update_scroungers(positions, positions[0], config, space, rng)
        assert np.allclose(out[1], 1.0)  # rank 3 (> n/2): Q * exp(0) = 1

    def test_better_half_at_producer_best_stays(self):
        space = box(3)
        config = SSAConfig(pop_size=6, max_iter=10, producer_fraction=0.2, seed=0)
        positions = np.tile(np.linspace(0.0, 5.0, 6)[:, None], (1, 3))
        producer_best = positions[1].copy()
        positions[2] = producer_best  # rank-3 scrounger already sits there
        rng = StubRng(pm_one=[1, 0, 1], normal_values=[0.5] * 6)
        out = update_scroungers(positions, producer_best, config, space, rng)
        assert np.array_equal(out[0], producer_best)

    def test_pseudoinverse_against_generic_oracle(self):
        rng = np.random.default_rng(0)
        for ndim in range(1, 12):
            a = rng.choice([-1.0, 1.0], size=ndim)
            ours = pm_one_pseudoinverse(a)
            ref = np.linalg.pinv(a[None, :])[:, 0]
            assert np.allclose(ours, ref, atol=1e-12)
            assert a @ a == pytest.approx(ndim)

    @given(seed=st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_bounds_hold(self, seed):
        space = box(3, -2.0, 2.0)
        config = SSAConfig(pop_size=7, max_iter=10, seed=0)
        rng = np.random.default_rng(seed)
        positions = rng.uniform(-2, 2, size=(7, 3))
        out = update_scroungers(positions, positions[0], config, space, rng)
        assert np.all(out >= -2.0) and np.all(out <= 2.0)


class TestUpdateWarners:
    def test_worse_than_best_lands_on_best_when_beta_zero(self):
        space = box(3)
        config = SSAConfig(pop_size=4, max_iter=10, warner_fraction=0.3, seed=0)
        positions = np.vstack([np.zeros(3), np.ones(3), 2 * np.ones(3), 3 * np.ones(3)])
        fitnesses = np.array([0.0, 1.0, 4.0, 9.0])
        best = Sparrow(positions[0].copy(), 0.0)
        worst = Sparrow(positions[-1].copy(), 9.0)
        rng = StubRng(normal_values=[0.0, 0.0])

        class ChooseLast(StubRng):
            def choice(self, n, size, replace):
                return np.array([3, 2])[:size]

        rng = ChooseLast(normal_values=[0.0, 0.0])
        out, chosen = update_warners(positions, fitnesses, best, worst, config, space, rng)
        for i in chosen:
            assert np.array_equal(out[i], best.position)

    def test_at_best_with_zero_step_stays(self):
        space = box(2)
        config = SSAConfig(pop_size=3, max_iter=10, warner_fraction=0.3, seed=0)
        positions = np.vstack([np.ones(2), np.ones(2), np.ones(2)])
        fitnesses = np.zeros(3)  # f_i == f_g == f_w
        best = Sparrow(np.ones(2), 0.0)
        worst = Sparrow(np.ones(2), 0.0)
        rng = StubRng(uniform_values=[0.0])
        out, chosen = update_warners(positions, fitnesses, best, worst, config, space, rng)
        assert np.array_equal(out[chosen[0]], positions[chosen[0]])

    def test_epsilon_keeps_update_finite(self):
        space = box(2)
        config = SSAConfig(pop_size=3, max_iter=10, warner_fraction=0.3, seed=0)
        positions = np.vstack([np.zeros(2), np.ones(2), 2 * np.ones(2)])
        fitnesses = np.array([0.0, 0.0, 0.0])  # f_i - f_w vanishes
        best = Sparrow(np.zeros(2), 0.0)
        worst = Sparrow(2 * np.ones(2), 0.0)
        rng = StubRng(uniform_values=[1.0])
        out, _ = update_warners(positions, fitnesses, best, worst, config, space, rng)
        assert np.all(np.isfinite(out))


class TestOptimize:
    def test_sphere_converges_single_seed(self):
        space = box(5, -5.0, 5.0)
        config = SSAConfig(pop_size=20, max_iter=100, seed=0)
        best_pos, best_fit, history = optimize(space, config, sphere)
        assert best_fit < 1e-2
        assert len(history) == 101

    def test_history_monotone_non_increasing(self):
        space = box(4)
        for seed in range(3):
            config = SSAConfig(pop_size=8, max_iter=30, seed=seed)
            _, _, history = optimize(space, config, sphere)
            fits = [r.best_fitness for r in history]
            assert all(b <= a for a, b in zip(fits, fits[1:]))

    def test_deterministic(self):
        space = box(3)
        config = SSAConfig(pop_size=6, max_iter=10, seed=11)
        a = optimize(space, config, sphere)
        b = optimize(space, config, sphere)
        assert np.array_equal(a[0], b[0]) and a[1] == b[1]
        assert [r.best_fitness for r in a[2]] == [r.best_fitness for r in b[2]]

    def test_constant_fitness_flat_history(self):
        space = box(2)
        config = SSAConfig(pop_size=5, max_iter=8, seed=2)
        _, best_fit, history = optimize(space, config, lambda x: 7.5)
        assert best_fit == 7.5
        assert all(r.best_fitness == 7.5 for r in history)

    def test_evaluated_positions_always_in_bounds(self):
        space = box(3, -1.5, 2.5)
        seen = []

        def recording(x):
            seen.append(np.asarray(x).copy())
            return sphere(x)

        config = SSAConfig(pop_size=6, max_iter=15, seed=4)
        optimize(space, config, recording)
        stacked = np.vstack(seen)
        assert np.all(stacked >= space.lower - 1e-12)
        assert np.all(stacked <= space.upper + 1e-12)

    def test_failing_candidates_survivable(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise RuntimeError("bad eval")
            return sphere(x)

        space = box(2)
        config = SSAConfig(pop_size=5, max_iter=10, seed=5)
        _, best_fit, _ = optimize(space, config, flaky)
        assert np.isfinite(best_fit)

    def test_parallel_jobs_match_serial(self):
        space = box(3)
        config = SSAConfig(pop_size=6, max_iter=6, seed=9)
        serial = optimize(space, config, sphere, jobs=1)
        threaded = optimize(space, config, sphere, jobs=2)
        assert np.array_equal(serial[0], threaded[0])
        assert serial[1] == threaded[1]

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            optimize(box(2), SSAConfig(pop_size=4, max_iter=1, seed=0), sphere, jobs=jobs)

    def test_evaluations_and_failures_counted_alike_in_workers(self):
        space = SearchSpace(dims=(Dimension(0, 9, "integer"), Dimension(-2.0, 2.0)))
        config = SSAConfig(pop_size=6, max_iter=5, seed=3)
        raised = []

        def recording(x):
            try:
                return odd_first_raises(x)
            except RuntimeError:
                raised.append(x.copy())
                raise

        serial = optimize(space, config, recording, jobs=1)
        forked = optimize(space, config, odd_first_raises, jobs=2)
        assert [r.evaluations for r in serial[2]] == [6] * 6
        assert sum(r.failures for r in serial[2]) == len(raised) > 0
        assert [(r.evaluations, r.failures) for r in forked[2]] == [
            (r.evaluations, r.failures) for r in serial[2]
        ]
        assert np.array_equal(serial[0], forked[0]) and serial[1] == forked[1]
        assert int(serial[0][0]) % 2 == 0

    def test_forked_workers_run_blas_on_one_thread(self):
        if blas.openblas_threads() is None:
            pytest.skip("NumPy's OpenBLAS offers no thread setter here")
        before = openblas_threads()
        config = SSAConfig(pop_size=4, max_iter=2, seed=0)
        # every candidate scores minus the thread count of the process that scored it
        _, best, history = optimize(box(2), config, lambda x: -openblas_threads(), jobs=2)
        assert best == -1.0 and [r.failures for r in history] == [0] * 3
        assert openblas_threads() == before

    def test_lost_worker_is_an_error(self):
        config = SSAConfig(pop_size=6, max_iter=3, seed=1)
        with pytest.raises(ssa.WorkerLostError, match="the search lost a worker process"):
            optimize(box(2), config, exits_on_positive_first, jobs=2)


class TestScoreMemo:
    """Each distinct quantized position is scored once per search."""

    # integer dimensions on a small grid: producers shrink onto the lower bound
    SPACE = SearchSpace(dims=(Dimension(1, 6, "integer"), Dimension(2, 5, "integer")))
    CONFIG = SSAConfig(pop_size=8, max_iter=12, seed=4)

    @pytest.fixture
    def evaluations(self, monkeypatch):
        """Per ``_evaluate`` call: the quantized rows it got and the fitness calls it made."""
        log, calls = [], []
        real = ssa._evaluate

        def recording(fitness, positions, space, *rest):
            before = len(calls)
            out = real(fitness, positions, space, *rest)
            log.append(([tuple(space.quantize(r)) for r in positions], len(calls) - before))
            return out

        monkeypatch.setattr(ssa, "_evaluate", recording)
        return log, calls

    def counting(self, calls, fails_at=()):
        def fitness(x):
            calls.append(tuple(x))
            if tuple(x) in fails_at:
                raise RuntimeError("failing corner")
            return sphere(x)

        return fitness

    def test_each_distinct_position_scored_once(self, evaluations):
        log, calls = evaluations
        _, _, history = optimize(self.SPACE, self.CONFIG, self.counting(calls))
        candidates = [row for rows, _ in log for row in rows]
        assert sorted(calls) == sorted(set(candidates))
        assert len(candidates) - len(calls) == sum(r.repeats for r in history) > 0
        assert candidates.count((1.0, 2.0)) > 1

    def test_repeats_are_candidates_minus_calls_per_iteration(self, evaluations):
        log, calls = evaluations
        _, _, history = optimize(self.SPACE, self.CONFIG, self.counting(calls))
        assert [r.repeats for r in history] == [len(rows) - n for rows, n in log]
        assert [r.evaluations for r in history] == [self.CONFIG.pop_size] * len(history)

    def test_jobs_give_equal_histories(self):
        serial, forked = (optimize(self.SPACE, self.CONFIG, sphere, jobs=j)[2] for j in (1, 2))

        def rows(history):
            return [(r.iteration, r.best_fitness, tuple(r.best_position), r.evaluations,
                     r.failures, r.repeats) for r in history]

        assert rows(forked) == rows(serial)
        assert sum(r.repeats for r in serial) > 0

    def test_repeated_failure_raises_once_and_counts_each_time(self, evaluations):
        log, calls = evaluations
        corner = (1.0, 2.0)
        _, best, history = optimize(self.SPACE, self.CONFIG, self.counting(calls, (corner,)))
        appearances = sum(rows.count(corner) for rows, _ in log)
        assert calls.count(corner) == 1 and appearances > 1
        assert sum(r.failures for r in history) == appearances
        assert best < ssa.WORST_FITNESS


class TestHyperparameterCoding:
    def test_space_shape(self):
        space = encode_hyperparameters()
        assert space.ndim == 11
        kinds = [d.kind for d in space.dims]
        assert kinds == ["integer"] * 5 + ["continuous", "integer"] + ["continuous"] * 4

    def test_lower_bound_decode(self):
        space = encode_hyperparameters()
        spec, training = decode(space.lower, space)
        assert spec.gru_units == (25, 25, 25, 25)
        assert training.max_epochs == 150
        assert training.learning_rate == pytest.approx(0.005)
        assert training.batch_size == 1
        assert spec.dropout_rates == pytest.approx((0.002,) * 4)
        assert training.lr_drop_period == 105
        assert training.lr_drop_factor == pytest.approx(0.01)

    def test_upper_bound_decode(self):
        space = encode_hyperparameters()
        spec, training = decode(space.upper, space)
        assert spec.gru_units == (200, 200, 200, 200)
        assert training.max_epochs == 700
        assert training.learning_rate == pytest.approx(0.015)
        assert training.batch_size == 20
        assert spec.dropout_rates == pytest.approx((0.2,) * 4)

    def test_drop_period_consistency_at_500(self):
        position = np.array([128, 128, 128, 128, 500, 0.01, 16, 0.02, 0.02, 0.02, 0.02])
        _, training = decode(position)
        assert training.lr_drop_period == 350

    def test_roundtrip(self):
        position = np.array([64, 100, 25, 200, 321, 0.0123, 7, 0.05, 0.002, 0.2, 0.11])
        spec, training = decode(position)
        back = encode(spec, training)
        assert np.allclose(back, position)
        spec2, training2 = decode(back)
        assert spec2.gru_units == spec.gru_units
        assert training2.max_epochs == training.max_epochs

    def test_out_of_bounds_rejected_with_full_listing(self):
        space = encode_hyperparameters()
        bad = space.lower.copy()
        bad[0] = 500.0
        bad[5] = 0.5
        with pytest.raises(ValueError) as err:
            decode(bad, space)
        message = str(err.value)
        assert "dimension 0" in message and "dimension 5" in message

    def test_integer_rounding_at_decode(self):
        space = encode_hyperparameters()
        position = space.lower.astype(float).copy()
        position[0] = 49.7
        spec, _ = decode(position, space)
        assert spec.gru_units[0] == 50

    def test_custom_ranges(self):
        space = encode_hyperparameters(epochs_range=(20, 50))
        assert space.dims[4].lower == 20 and space.dims[4].upper == 50
        spec, training = decode(space.lower, space)
        assert training.max_epochs == 20
        assert training.lr_drop_period == 14

    def test_decoded_specs_satisfy_invariants(self):
        space = encode_hyperparameters()
        rng = np.random.default_rng(0)
        for _ in range(25):
            position = rng.uniform(space.lower, space.upper)
            spec, training = decode(position, space)
            assert all(25 <= g <= 200 for g in spec.gru_units)
            assert training.lr_drop_period <= training.max_epochs
            assert 1 <= training.batch_size <= 20


class TestConfigValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            SSAConfig(producer_fraction=0.0)
        with pytest.raises(ValueError):
            SSAConfig(safety_threshold=0.4)

    def test_counts_with_default_population(self):
        config = SSAConfig(pop_size=6)
        assert config.n_producers == 2
        assert config.n_warners == 1

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            Dimension(2.0, 1.0)
        with pytest.raises(ValueError):
            Dimension(0.0, 1.0, "boolean")
