from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import tracemalloc

from oracles import (
    adam_reference,
    bigru_backward_reference,
    bigru_forward_reference,
    forward_oracle,
    gradcheck,
    gru_cell_forward,
    network_reference,
    per_step_bigru_forward,
    per_step_network_backward,
    scalar_cell_oracle,
    sigmoid_reference,
)

from sohpred import neuralnet as nn
from sohpred.seeding import derive_rng


def zeroed_cell(input_size, hidden_size):
    cell = nn.init_gru_cell(input_size, hidden_size, np.random.default_rng(0))
    for name in ("W_U", "W_R", "W_h"):
        getattr(cell, name)[:] = 0.0
    return cell


def built_spec(units=(3, 2, 4, 3), window=4, dropouts=(0.0,) * 4, seed=7):
    spec = nn.DualBiGRUSpec(window, units, dropouts)
    params = nn.init_params(spec, derive_rng(seed, "init"))
    return nn.DualBiGRUSpec(window, units, dropouts, params=params)


# The parametrized oracle and gradient checks keep one case, named after the
# one candidate form the package implements (the model file records it).
ONLY_FORM = pytest.mark.parametrize("form", ["reset_gated"])


class TestGRUCell:
    """The per-step reference cell that the sequence forward is checked against."""

    def test_zero_weights_give_half_decay(self):
        cell = zeroed_cell(1, 3)
        h_prev = np.array([0.4, -0.2, 1.0])
        h, cache = gru_cell_forward(cell, np.array([0.7]), h_prev)
        assert np.allclose(h, 0.5 * h_prev)
        _, _, U, R, h_tilde = cache
        assert np.allclose(U, 0.5) and np.allclose(R, 0.5) and np.allclose(h_tilde, 0.0)

    def test_zero_input_zero_state(self):
        cell = nn.init_gru_cell(2, 3, np.random.default_rng(1))
        h, _ = gru_cell_forward(cell, np.zeros(2), np.zeros(3))
        assert np.allclose(h, 0.0)

    @ONLY_FORM
    def test_random_case_matches_scalar_oracle(self, form):
        rng = np.random.default_rng(42)
        cell = nn.init_gru_cell(2, 3, rng)
        cell.b_U[:] = rng.normal(size=3)
        cell.b_R[:] = rng.normal(size=3)
        cell.b_h[:] = rng.normal(size=3)
        x = rng.normal(size=2)
        h_prev = rng.normal(size=3)
        h, _ = gru_cell_forward(cell, x, h_prev)
        expected = scalar_cell_oracle(cell, x, h_prev)
        assert np.allclose(h, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        cell = nn.init_gru_cell(2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            gru_cell_forward(cell, np.zeros(5), np.zeros(3))

    def test_update_gate_forced_closed_keeps_state(self):
        cell = nn.init_gru_cell(1, 4, np.random.default_rng(3))
        cell.b_U[:] = -1e3  # update gate exactly 0 in float64
        h_prev = np.array([0.3, -0.8, 0.1, 0.9])
        h, _ = gru_cell_forward(cell, np.array([0.5]), h_prev)
        assert np.array_equal(h, h_prev)

    def test_update_gate_forced_open_takes_candidate(self):
        cell = nn.init_gru_cell(1, 4, np.random.default_rng(3))
        cell.b_U[:] = 1e3  # update gate exactly 1
        h_prev = np.array([0.3, -0.8, 0.1, 0.9])
        x = np.array([0.5])
        h, cache = gru_cell_forward(cell, x, h_prev)
        assert np.array_equal(h, cache[4][0])

    @given(seed=st.integers(0, 9999))
    @settings(max_examples=30, deadline=None)
    def test_hidden_state_bounded_from_zero_init(self, seed):
        rng = np.random.default_rng(seed)
        cell = nn.init_gru_cell(1, 3, rng)
        h = np.zeros(3)
        for t in range(6):
            h, _ = gru_cell_forward(cell, rng.normal(size=1) * 5.0, h)
            assert np.all(np.abs(h) <= 1.0)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            nn.GRUCellParams(
                W_U=np.zeros((3, 3)),
                W_R=np.zeros((3, 4)),
                W_h=np.zeros((3, 4)),
                b_U=np.zeros(3),
                b_R=np.zeros(3),
                b_h=np.zeros(3),
                input_size=1,
                hidden_size=3,
            )


class TestFlip:
    def test_three_elements(self):
        seq = np.array([[[1.0]], [[2.0]], [[3.0]]])
        assert np.array_equal(nn.flip(seq)[:, 0, 0], [3.0, 2.0, 1.0])

    def test_singleton(self):
        seq = np.array([[[5.0]]])
        assert np.array_equal(nn.flip(seq), seq)

    @given(n=st.integers(1, 8), seed=st.integers(0, 999))
    @settings(max_examples=30, deadline=None)
    def test_involution(self, n, seed):
        seq = np.random.default_rng(seed).normal(size=(n, 2, 3))
        assert np.array_equal(nn.flip(nn.flip(seq)), seq)


class TestBiGRU:
    def test_palindrome_symmetry_with_shared_params(self):
        rng = np.random.default_rng(5)
        cell = nn.init_gru_cell(1, 3, rng)
        seq = np.array([0.3, -0.7, 1.1, -0.7, 0.3])[:, None, None]
        out, _ = nn.bigru_forward(cell, cell, 0.0, 0.0, seq, mode="eval")
        fwd, bwd = out[:, 0, :3], out[:, 0, 3:]
        # reversing time swaps the roles of the two directions
        assert np.allclose(fwd, bwd[::-1], atol=1e-12)

    def test_eval_mode_ignores_rng(self):
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(2)
        cell_f = nn.init_gru_cell(1, 2, np.random.default_rng(0))
        cell_b = nn.init_gru_cell(1, 2, np.random.default_rng(9))
        seq = np.random.default_rng(3).normal(size=(4, 2, 1))
        out_a, _ = nn.bigru_forward(cell_f, cell_b, 0.3, 0.3, seq, "eval", rng_a)
        out_b, _ = nn.bigru_forward(cell_f, cell_b, 0.3, 0.3, seq, "eval", rng_b)
        assert np.array_equal(out_a, out_b)

    def test_zero_cells_zero_output(self):
        cell_f = zeroed_cell(1, 2)
        cell_b = zeroed_cell(1, 3)
        seq = np.random.default_rng(0).normal(size=(5, 2, 1))
        out, _ = nn.bigru_forward(cell_f, cell_b, 0.0, 0.0, seq, "eval")
        assert np.allclose(out, 0.0)

    def test_train_mode_needs_rng_with_dropout(self):
        cell = nn.init_gru_cell(1, 2, np.random.default_rng(0))
        seq = np.zeros((3, 1, 1))
        with pytest.raises(ValueError, match="needs an rng"):
            nn.bigru_forward(cell, cell, 0.2, 0.0, seq, "train", None)

    @pytest.mark.parametrize("units", [(2, 1, 2, 1), (3, 3, 3, 3), (5, 7, 4, 6)])
    @pytest.mark.parametrize("steps", [1, 5])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    def test_bit_identical_to_per_step_reference(self, units, steps, batch, dropout):
        cells = built_spec(units=units, window=steps, seed=steps + batch).params.cells
        rng = np.random.default_rng(batch)
        for cell in cells:
            for bias in (cell.b_U, cell.b_R, cell.b_h):
                bias[:] = rng.normal(size=cell.hidden_size) * 0.3
        seq = rng.normal(size=(steps, batch, 1))
        for pair in (cells[:2], cells[2:]):  # block 2 reads block 1's output
            ours, _ = nn.bigru_forward(*pair, dropout, dropout, seq, "train", derive_rng(4, "mask"))
            ref = per_step_bigru_forward(
                *pair, dropout, dropout, seq, "train", derive_rng(4, "mask")
            )
            assert np.array_equal(ours, ref)
            seq = ours


class TestNetworkForward:
    def test_zero_dense_gives_bias(self):
        spec = built_spec()
        spec.params.dense_w[:] = 0.0
        spec.params.dense_b[...] = 0.37
        preds, _ = nn.network_forward(spec, np.random.default_rng(0).normal(size=(3, 4)))
        assert np.allclose(preds, 0.37)

    def test_zero_gru_weights_give_dense_bias(self):
        spec = built_spec()
        for cell in spec.params.cells:
            for name in ("W_U", "W_R", "W_h"):
                getattr(cell, name)[:] = 0.0
        spec.params.dense_b[...] = -1.5
        preds, _ = nn.network_forward(spec, np.ones((2, 4)))
        assert np.allclose(preds, -1.5)

    @ONLY_FORM
    def test_tiny_net_matches_independent_oracle(self, form):
        spec = built_spec(units=(2, 2, 2, 2), window=3, seed=11)
        rng = np.random.default_rng(1)
        for cell in spec.params.cells:
            cell.b_U[:] = rng.normal(size=cell.hidden_size) * 0.3
            cell.b_h[:] = rng.normal(size=cell.hidden_size) * 0.3
        windows = rng.normal(size=(5, 3))
        preds, _ = nn.network_forward(spec, windows)
        for i in range(5):
            assert preds[i] == pytest.approx(forward_oracle(spec, windows[i]), abs=1e-10)

    def test_window_length_checked(self):
        spec = built_spec(window=4)
        with pytest.raises(ValueError, match="window length"):
            nn.network_forward(spec, np.zeros((2, 6)))

    def test_params_of_other_units_rejected(self):
        # (1, 2, 2, 1) has the buffer size and block widths of (2, 1, 2, 1)
        params = built_spec(units=(1, 2, 2, 1), window=3).params
        with pytest.raises(ValueError, match="tensor shapes"):
            nn.DualBiGRUSpec(3, (2, 1, 2, 1), (0.0,) * 4, params=params)

    def test_non_finite_params_rejected(self):
        params = built_spec(units=(2, 1, 2, 1), window=3).params
        params.cells[1].W_h[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            nn.DualBiGRUSpec(3, (2, 1, 2, 1), (0.0,) * 4, params=params)

    def test_unbuilt_spec_rejected(self):
        spec = nn.DualBiGRUSpec(4, (2, 2, 2, 2), (0.0,) * 4)
        with pytest.raises(ValueError, match="no parameters"):
            nn.network_forward(spec, np.zeros((1, 4)))

    def test_nan_window_diverges(self):
        windows = np.zeros((3, 4))
        windows[1, 2] = np.nan
        with pytest.raises(nn.DivergenceError, match="non-finite hidden state"):
            nn.network_forward(built_spec(), windows)


class TestMSELoss:
    def test_zero_when_equal(self):
        loss, grad = nn.mse_loss(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert loss == 0.0
        assert np.allclose(grad, 0.0)

    def test_hand_case(self):
        loss, _ = nn.mse_loss(np.array([1.0, 1.0]), np.array([0.0, 2.0]))
        assert loss == pytest.approx(1.0)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        preds = rng.normal(size=6)
        targets = rng.normal(size=6)
        _, grad = nn.mse_loss(preds, targets)
        eps = 1e-6
        for i in range(6):
            bumped = preds.copy()
            bumped[i] += eps
            lp, _ = nn.mse_loss(bumped, targets)
            bumped[i] -= 2 * eps
            lm, _ = nn.mse_loss(bumped, targets)
            assert grad[i] == pytest.approx((lp - lm) / (2 * eps), abs=1e-8)


class TestBackward:
    @ONLY_FORM
    def test_gradients_match_finite_differences(self, form):
        spec = built_spec(units=(3, 2, 3, 2), window=3, seed=5)
        rng = np.random.default_rng(2)
        windows = rng.normal(size=(4, 3))
        targets = rng.normal(size=4)
        worst = gradcheck(spec, windows, targets, lambda: None)
        assert worst <= 1e-4

    def test_gradients_with_dropout_masks_fixed(self):
        spec = built_spec(units=(2, 2, 2, 2), window=3, dropouts=(0.25,) * 4, seed=9)
        rng = np.random.default_rng(3)
        windows = rng.normal(size=(4, 3))
        targets = rng.normal(size=4)
        worst = gradcheck(spec, windows, targets, lambda: derive_rng(77, "mask"))
        assert worst <= 1e-4

    def test_frozen_path_gets_zero_gradient(self):
        spec = built_spec(units=(2, 2, 2, 3), window=3, seed=1)
        g3 = spec.gru_units[2]
        spec.params.dense_w[g3:] = 0.0  # block-2 backward half unread
        windows = np.random.default_rng(0).normal(size=(3, 3))
        preds, cache = nn.network_forward(spec, windows)
        _, dy = nn.mse_loss(preds, np.zeros(3))
        grads = nn.network_backward(spec, dy, cache, spec.params.zeros_like())
        for name in nn.CELL_FIELDS:
            assert np.allclose(getattr(grads.cells[3], name), 0.0)
        assert not np.allclose(grads.cells[2].W_U, 0.0)

    def test_gradients_deterministic(self):
        spec = built_spec(units=(2, 2, 2, 2), window=3, seed=2)
        windows = np.random.default_rng(1).normal(size=(3, 3))
        outs = []
        for _ in range(2):
            preds, cache = nn.network_forward(spec, windows)
            _, dy = nn.mse_loss(preds, np.zeros(3))
            grads = nn.network_backward(spec, dy, cache, spec.params.zeros_like())
            outs.append({k: v.copy() for k, v in nn.iter_arrays(grads)})
        for key in outs[0]:
            assert np.array_equal(outs[0][key], outs[1][key])


class TestSequenceBackward:
    """The sequence-level backward against one oracle cell step per time step."""

    @pytest.mark.parametrize("units", [(2, 1, 2, 1), (3, 3, 3, 3)])
    @pytest.mark.parametrize("steps", [1, 5])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    def test_matches_per_step_reference(self, units, steps, batch, dropout):
        spec = built_spec(units=units, window=steps, dropouts=(dropout,) * 4, seed=steps + batch)
        rng = np.random.default_rng(batch)
        preds, cache = nn.network_forward(
            spec, rng.normal(size=(batch, steps)), "train", derive_rng(3, "mask")
        )
        _, dy = nn.mse_loss(preds, rng.normal(size=batch))
        ours = dict(nn.iter_arrays(nn.network_backward(spec, dy, cache, spec.params.zeros_like())))
        for name, ref in nn.iter_arrays(per_step_network_backward(spec, dy, cache)):
            assert np.max(np.abs(ours[name] - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    def test_dirty_buffer_fully_overwritten(self):
        spec = built_spec(units=(3, 2, 4, 3), window=4, dropouts=(0.25,) * 4)
        rng = np.random.default_rng(5)
        batches = [rng.normal(size=(b, 4)) for b in (3, 1, 3)]

        def backward(windows, grads):
            preds, cache = nn.network_forward(spec, windows, "train", derive_rng(1, "mask"))
            _, dy = nn.mse_loss(preds, np.zeros(len(windows)))
            return nn.network_backward(spec, dy, cache, grads)

        fresh = backward(batches[2], spec.params.zeros_like()).flat.copy()
        reused = spec.params.zeros_like()
        reused.flat[:] = np.nan
        for windows in batches:
            backward(windows, reused)
        assert np.array_equal(reused.flat, fresh)


STACK_UNITS = pytest.mark.parametrize(
    "units", [(3, 3, 4, 4), (3, 2, 4, 3), (16, 16, 16, 16), (5, 7, 4, 6)]
)


class TestStackedDirections:
    """Equal-width layers run both directions as one stack; each direction alone is the reference."""

    def case(self, units, steps, batch, dropout):
        spec = built_spec(units=units, window=steps, dropouts=(dropout,) * 4, seed=steps + batch)
        rng = np.random.default_rng(batch)
        for cell in spec.params.cells:
            for bias in (cell.b_U, cell.b_R, cell.b_h):
                bias[:] = rng.normal(size=cell.hidden_size) * 0.3
        return spec, rng.normal(size=(batch, steps)), rng

    @STACK_UNITS
    @pytest.mark.parametrize("steps", [1, 5])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    def test_blocks_match_per_direction_reference(self, units, steps, batch, dropout):
        spec, windows, rng = self.case(units, steps, batch, dropout)
        cells = spec.params.cells
        grads, ref_grads = spec.params.zeros_like(), spec.params.zeros_like()
        mask_rng, ref_mask_rng = derive_rng(4, "mask"), derive_rng(4, "mask")
        seq = windows.T[:, :, None]
        for k in (0, 2):  # block 2 reads block 1's output
            pair = cells[k : k + 2]
            out, cache = nn.bigru_forward(*pair, dropout, dropout, seq, "train", mask_rng)
            ref_out, ref_cache = bigru_forward_reference(
                *pair, dropout, dropout, seq, "train", ref_mask_rng
            )
            assert np.array_equal(out, ref_out)
            dout = rng.normal(size=out.shape)
            dx = nn.bigru_backward(*pair, dout, cache, *grads.cells[k : k + 2])
            ref_dx = bigru_backward_reference(*pair, dout, ref_cache, *ref_grads.cells[k : k + 2])
            assert np.array_equal(dx, ref_dx)
            seq = out
        assert np.array_equal(grads.flat, ref_grads.flat)

    @STACK_UNITS
    @pytest.mark.parametrize("steps", [1, 5])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("dropout", [0.0, 0.25])
    def test_network_matches_per_direction_reference(self, units, steps, batch, dropout):
        spec, windows, rng = self.case(units, steps, batch, dropout)
        targets = rng.normal(size=batch)
        preds, cache = nn.network_forward(spec, windows, "train", derive_rng(3, "mask"))
        _, dy = nn.mse_loss(preds, targets)
        grads = nn.network_backward(spec, dy, cache, spec.params.zeros_like())
        ref_preds, ref_grads = network_reference(
            spec, windows, lambda p: nn.mse_loss(p, targets)[1], "train", derive_rng(3, "mask")
        )
        assert np.array_equal(preds, ref_preds)
        assert np.array_equal(grads.flat, ref_grads.flat)

    def test_equal_cells_stack_as_views_of_the_buffer(self):
        params = built_spec(units=(3, 3, 4, 3)).params
        (stack,) = params.layers[0]
        first, second = params.layers[1]  # unequal cells run one after the other
        assert first is params.cells[2] and second is params.cells[3]
        for name in nn.CELL_FIELDS:
            stacked = getattr(stack, name)
            assert np.shares_memory(stacked, params.flat)
            for s, cell in enumerate(params.cells[:2]):
                assert np.shares_memory(stacked[s], getattr(cell, name))
                assert np.array_equal(stacked[s], getattr(cell, name))
        grads = params.zeros_like()
        (grad_stack,) = grads.layers[0]
        grad_stack.W_h[1, 0, 0] = 2.5  # writes through to the backward cell of the buffer
        assert grads.cells[1].W_h[0, 0] == 2.5
        assert np.count_nonzero(grads.flat) == 1

    def test_cells_wider_than_the_limit_run_alone(self):
        wide = nn.STACK_MAX_UNITS + 1
        params = built_spec(units=(wide, wide, 2, 2), window=2).params
        first, second = params.layers[0]
        assert first is params.cells[0] and second is params.cells[1]
        assert len(params.layers[1]) == 1

    def test_cells_of_separate_buffers_do_not_stack(self):
        rng = np.random.default_rng(0)
        cells = nn.init_gru_cell(1, 3, rng), nn.init_gru_cell(1, 3, rng)
        first, second = nn._layer_stacks(*cells)
        assert first is cells[0] and second is cells[1]

    @pytest.mark.parametrize("units", [(3, 3, 4, 4), (3, 2, 4, 3)])
    def test_nan_window_diverges(self, units):
        windows = np.zeros((3, 4))
        windows[1, 2] = np.nan
        with pytest.raises(nn.DivergenceError, match="non-finite hidden state"):
            nn.network_forward(built_spec(units=units), windows)


class TestSigmoid:
    SPECIALS = [0.0, -0.0, 1e-310, -1e-310, 36.0, -36.0, 745.0, -745.0,
                1000.0, -1000.0, np.inf, -np.inf, np.nan]

    def test_bit_identical_to_two_branch_form(self):
        x = np.concatenate(
            [self.SPECIALS, 50.0 * np.random.default_rng(0).normal(size=100_000)]
        )
        assert np.array_equal(nn.sigmoid(x), sigmoid_reference(x), equal_nan=True)

    def test_no_overflow(self):
        with np.errstate(over="raise"):
            out = nn.sigmoid(np.array(self.SPECIALS).reshape(1, -1))
        assert out.shape == (1, len(self.SPECIALS))


class TestAdam:
    def test_bit_identical_to_five_line_formula(self):
        params = built_spec(units=(3, 2, 4, 3), window=3).params
        ref = nn.ModelParams.from_flat(params.gru_units, params.flat.copy())
        state, ref_state = nn.AdamState.zeros_like(params), nn.AdamState.zeros_like(ref)
        grads = params.zeros_like()
        config = nn.TrainingConfig(50, 0.01, 25, 0.1)  # the learning rate drops at epoch 25
        rng = np.random.default_rng(6)
        for epoch in range(50):
            grads.flat[:] = rng.normal(scale=10.0 ** rng.integers(-6, 2), size=grads.flat.size)
            nn.adam_step(params, grads, state, config, epoch)
            adam_reference(ref, grads, ref_state, config, epoch)
            assert np.array_equal(params.flat, ref.flat)
            assert np.array_equal(state.m, ref_state.m) and np.array_equal(state.v, ref_state.v)
        assert state.t == ref_state.t == 50

    def test_step_allocates_no_model_sized_array(self):
        params = built_spec(units=(8, 8, 8, 8), window=3).params
        grads = params.zeros_like()
        grads.flat[:] = np.random.default_rng(1).normal(size=grads.flat.size)
        state = nn.AdamState.zeros_like(params)
        config = nn.TrainingConfig(10, 0.01, 10)
        nn.adam_step(params, grads, state, config, epoch=0)
        tracemalloc.start()
        try:
            nn.adam_step(params, grads, state, config, epoch=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < params.flat.nbytes

    def test_zero_gradient_keeps_params(self):
        spec = built_spec(units=(2, 2, 2, 2), window=3)
        params = spec.params
        before = {k: v.copy() for k, v in nn.iter_arrays(params)}
        grads = params.zeros_like()
        state = nn.AdamState.zeros_like(params)
        state.m = np.full_like(params.flat, 0.3)
        config = nn.TrainingConfig(10, 0.01, 10)
        nn.adam_step(params, grads, state, config, epoch=0)
        for k, v in nn.iter_arrays(params):
            assert not np.array_equal(v, before[k])  # stored momentum still acts
        # with zero moments as well, parameters stay put
        params2 = built_spec(units=(2, 2, 2, 2), window=3).params
        before2 = {k: v.copy() for k, v in nn.iter_arrays(params2)}
        nn.adam_step(params2, params2.zeros_like(), nn.AdamState.zeros_like(params2), config, 0)
        for k, v in nn.iter_arrays(params2):
            assert np.array_equal(v, before2[k])

    def test_learning_rate_step_decay(self):
        config = nn.TrainingConfig(500, 0.01, 350, 0.01)
        assert nn.effective_learning_rate(config, 349) == pytest.approx(0.01)
        assert nn.effective_learning_rate(config, 350) == pytest.approx(0.01 * 0.01)

    def test_scalar_quadratic_minimized(self):
        # single free parameter: dense bias driven toward 0.3
        spec = built_spec(units=(1, 1, 1, 1), window=1)
        params = spec.params
        state = nn.AdamState.zeros_like(params)
        config = nn.TrainingConfig(600, 0.01, 600)
        for step in range(500):
            grads = params.zeros_like()
            grads.dense_b[...] = 2.0 * (float(params.dense_b) - 0.3)
            nn.adam_step(params, grads, state, config, epoch=0)
        assert (float(params.dense_b) - 0.3) ** 2 < 1e-6


class TestMakeWindows:
    def test_counts(self):
        hi = np.arange(10.0)
        soh = np.linspace(1.0, 0.9, 10)
        batch = nn.make_windows(hi, soh, 5)
        assert len(batch) == 6
        assert nn.make_windows(hi, soh, 1).inputs.shape == (10, 1)

    def test_targets_align_with_window_ends(self):
        hi = np.arange(8.0)
        soh = np.arange(8.0) * 10.0
        batch = nn.make_windows(hi, soh, 3, index_offset=100)
        # hand-built oracle over every window
        for row in range(len(batch)):
            assert np.array_equal(batch.inputs[row], hi[row : row + 3])
            assert batch.targets[row] == soh[row + 2]
            assert batch.indices[row] == 100 + row + 2

    def test_short_series_rejected(self):
        with pytest.raises(ValueError, match="shorter than window"):
            nn.make_windows(np.arange(3.0), np.arange(3.0), 5)

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError, match="aligned"):
            nn.make_windows(np.arange(5.0), np.arange(6.0), 2)


def identity_batch(n=60, window=5):
    soh = np.linspace(1.0, 0.85, n)
    return nn.make_windows(soh, soh, window)


class TestTrainPredict:
    def test_identity_mapping_fits(self):
        spec = nn.DualBiGRUSpec(5, (16, 16, 16, 16), (0.0,) * 4)
        config = nn.TrainingConfig(200, 0.01, 140, 0.01, batch_size=8, seed=0)
        fitted, losses = nn.train(spec, config, identity_batch())
        assert np.sqrt(losses[-1]) < 0.01
        assert all(np.isfinite(losses))

    def test_same_seed_identical_history(self):
        spec = nn.DualBiGRUSpec(5, (8, 8, 8, 8), (0.1,) * 4)
        config = nn.TrainingConfig(30, 0.01, 30, batch_size=8, seed=3)
        batch = identity_batch()
        _, losses_a = nn.train(spec, config, batch)
        fitted_b, losses_b = nn.train(spec, config, batch)
        assert losses_a == losses_b
        fitted_c, _ = nn.train(spec, config, batch)
        for (_, x), (_, y) in zip(nn.iter_arrays(fitted_b.params), nn.iter_arrays(fitted_c.params)):
            assert np.array_equal(x, y)

    def test_input_spec_not_mutated(self):
        spec = built_spec(units=(4, 4, 4, 4), window=5)
        snapshot = {k: v.copy() for k, v in nn.iter_arrays(spec.params)}
        nn.train(spec, nn.TrainingConfig(5, 0.01, 5, batch_size=8, seed=0), identity_batch())
        for k, v in nn.iter_arrays(spec.params):
            assert np.array_equal(v, snapshot[k])

    def test_predict_deterministic_and_constant_bias(self):
        spec = built_spec(window=4)
        windows = np.random.default_rng(0).normal(size=(6, 4))
        assert np.array_equal(nn.predict(spec, windows), nn.predict(spec, windows))
        spec.params.dense_w[:] = 0.0
        spec.params.dense_b[...] = 0.9
        assert np.allclose(nn.predict(spec, windows), 0.9)

    def test_heldout_tail_of_identity_fit(self):
        n, w = 80, 5
        soh = np.linspace(1.0, 0.85, n)
        train_batch = nn.make_windows(soh[:64], soh[:64], w)
        spec = nn.DualBiGRUSpec(w, (16, 16, 16, 16), (0.0,) * 4)
        config = nn.TrainingConfig(200, 0.01, 140, 0.01, batch_size=8, seed=1)
        fitted, _ = nn.train(spec, config, train_batch)
        tail = nn.make_windows(soh[64:], soh[64:], w)
        preds = nn.predict(fitted, tail.inputs)
        rmse = np.sqrt(np.mean((preds - tail.targets) ** 2))
        assert rmse < 0.05

    def test_divergence_detected(self):
        spec = built_spec(units=(2, 2, 2, 2), window=3)
        batch = nn.SequenceBatch(
            inputs=np.full((4, 3), 1e300),
            targets=np.full(4, np.nan),
            indices=np.arange(4),
        )
        with pytest.raises((nn.DivergenceError, FloatingPointError)):
            nn.train(spec, nn.TrainingConfig(2, 0.01, 2, batch_size=2, seed=0), batch)


class TestSerialization:
    def test_roundtrip_bitwise(self, tmp_path):
        spec = built_spec(units=(3, 2, 4, 3), window=4, dropouts=(0.1, 0.02, 0.3, 0.002))
        path = tmp_path / "model.bin"
        nn.save_model(spec, path)
        loaded = nn.load_model(path)
        assert loaded.window_length == spec.window_length
        assert loaded.gru_units == spec.gru_units
        assert loaded.dropout_rates == spec.dropout_rates
        assert np.array_equal(loaded.params.flat, spec.params.flat)
        for (ka, va), (kb, vb) in zip(
            nn.iter_arrays(spec.params), nn.iter_arrays(loaded.params)
        ):
            assert ka == kb
            assert np.array_equal(va, vb)
        windows = np.random.default_rng(2).normal(size=(4, 4))
        assert np.array_equal(nn.predict(spec, windows), nn.predict(loaded, windows))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            nn.load_model(tmp_path / "nope.bin")

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a model at all")
        with pytest.raises(ValueError):
            nn.load_model(path)

    def test_unbuilt_spec_not_saveable(self, tmp_path):
        spec = nn.DualBiGRUSpec(4, (2, 2, 2, 2), (0.0,) * 4)
        with pytest.raises(ValueError):
            nn.save_model(spec, tmp_path / "x.bin")

    def saved(self, tmp_path, edit):
        path = tmp_path / "model.bin"
        nn.save_model(built_spec(units=(2, 1, 2, 1), window=3), path)
        path.write_bytes(edit(path.read_bytes()))
        return path

    def test_missing_header_field_names_path(self, tmp_path):
        path = self.saved(tmp_path, lambda b: b.replace(b"window_length 3\n", b""))
        with pytest.raises(ValueError, match=r"model\.bin.*window_length"):
            nn.load_model(path)

    def test_truncated_data_names_path(self, tmp_path):
        path = self.saved(tmp_path, lambda b: b[:-16])
        with pytest.raises(ValueError, match=r"model\.bin"):
            nn.load_model(path)

    def test_trailing_bytes_name_path(self, tmp_path):
        path = self.saved(tmp_path, lambda b: b + bytes(8))
        with pytest.raises(ValueError, match=r"model\.bin"):
            nn.load_model(path)

    def test_non_finite_values_name_path(self, tmp_path):
        nan = np.array([np.nan], dtype="<f8").tobytes()
        path = self.saved(tmp_path, lambda b: b[:-8] + nan)
        with pytest.raises(ValueError, match=r"model\.bin.*non-finite"):
            nn.load_model(path)

    def test_concat_candidate_form_rejected(self, tmp_path):
        path = self.saved(
            tmp_path, lambda b: b.replace(b"candidate_form reset_gated", b"candidate_form concat")
        )
        with pytest.raises(ValueError, match=r"model\.bin.*candidate_form concat"):
            nn.load_model(path)


# Written by the first release of the v1 writer: units (2, 1, 2, 1), window 3,
# dropouts (0.1, 0.0, 0.2, 0.05), trained for 6 epochs (seed 11) on 10 windows
# of cos(0.4 k) against a linear SOH fade.  PREDICTIONS are that model's
# outputs on FIXED_WINDOWS, recorded when the file was written.
MODEL_V1 = Path(__file__).parent / "data" / "model_v1.bin"
FIXED_WINDOWS = np.array([[0.0, 0.5, 1.0], [1.0, -1.0, 0.25], [-0.3, -0.3, -0.3]])
PREDICTIONS = [0.921797092197743, 0.8655241970606784, 0.8630380786553139]


class TestModelFileV1:
    def test_load_then_save_is_byte_identical(self, tmp_path):
        nn.save_model(nn.load_model(MODEL_V1), tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == MODEL_V1.read_bytes()

    def test_predictions_match_recorded(self):
        spec = nn.load_model(MODEL_V1)
        assert (spec.window_length, spec.gru_units) == (3, (2, 1, 2, 1))
        assert nn.predict(spec, FIXED_WINDOWS).tolist() == PREDICTIONS
