"""Dual-module bidirectional GRU regressor, implemented from scratch.

Two serially connected bidirectional blocks, each made of a forward GRU
and a backward GRU that sees the time-reversed sequence; per-direction
inverted dropout; a dense head maps the last time step of the second
block to one scalar.  Training is full backpropagation through time with
Adam and piecewise-constant learning-rate decay.  Everything is float64
and deterministic given a seed.

Gate equations per cell, with z = [x_t, h_prev]:

    U = sigmoid(W_U z + b_U)
    R = sigmoid(W_R z + b_R)
    h~ = tanh(W_h [x_t, R * h_prev] + b_h)
    h  = (1 - U) * h_prev + U * h~

All 26 trainable tensors of a network are views into one contiguous
float64 buffer, ``ModelParams.flat``, laid out by :func:`tensor_layout`:
the cells m1f, m1b, m2f, m2b in turn (W_U, W_R, W_h, b_U, b_R, b_h each),
then dense.w and dense.b.  Gradients use the same class over a buffer of
their own, so Adam updates the whole network with a few vector
operations per cache-sized block, and the model file is a text header
followed by the buffer.
A block whose two cells have equal hidden sizes, at any width, runs both
directions as one stack: its cells sit at a constant offset in the buffer,
so each matmul takes both directions' weights as one strided view; such a
stack is a :class:`GRUCellParams` with a leading axis of 2.
:func:`network_forward` is the one forward pass.  Train mode keeps the
caches that :func:`network_backward` reads; eval mode, which
:func:`predict` runs, keeps none and holds one step's arrays besides the
states.  A stack holds no more memory than its two cells run in turn.
"""

from __future__ import annotations

import math
import os
import stat
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .seeding import derive_rng


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or activation."""


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 1/(1+exp(-x)) for x >= 0, exp(x)/(1+exp(x)) below: exp never overflows
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


CELL_NAMES = ("m1f", "m1b", "m2f", "m2b")
CELL_FIELDS = ("W_U", "W_R", "W_h", "b_U", "b_R", "b_h")


@dataclass
class GRUCellParams:
    """Weights of one GRU cell, or of a stack of cells of one shape.

    Gate matrices act on [x, h_prev]; the candidate matrix acts on
    [x, R*h_prev].  A stack of S cells (see :func:`_layer_stacks`) has a
    leading axis on every array: ``W_*`` (S, H, J), ``b_*`` (S, H).  Only
    shapes are checked here: finiteness is checked once, where parameters
    enter a :class:`DualBiGRUSpec`.
    """

    W_U: np.ndarray
    W_R: np.ndarray
    W_h: np.ndarray
    b_U: np.ndarray
    b_R: np.ndarray
    b_h: np.ndarray
    input_size: int
    hidden_size: int

    def __post_init__(self) -> None:
        lead = self.W_U.shape[:-2]  # (S,) for a stack, () for one cell
        H, joint = self.hidden_size, self.input_size + self.hidden_size
        for name in CELL_FIELDS:
            shape = (*lead, H, joint) if name[0] == "W" else (*lead, H)
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


# A block's cells as its sequence loops take them: one stack of both, or two stacks of one
_Layer = tuple[GRUCellParams, ...]


def _layer_stacks(first: GRUCellParams, second: GRUCellParams) -> _Layer:
    """A layer's two cells as one stack of both, or else as two stacks of one.

    The cells stack when they have equal sizes, whatever their width, and
    every array of ``second`` sits at one nonzero byte offset from the same
    array of ``first`` in one buffer, as the equal cells of a layer in
    :class:`ModelParams` do.  Every array is a view: the stacked arrays are
    ``as_strided`` views of that buffer, and a stack of one views its cell.
    """
    pairs = [(getattr(first, name), getattr(second, name)) for name in CELL_FIELDS]
    gaps = {b.ctypes.data - a.ctypes.data for a, b in pairs}
    sizes = (first.input_size, first.hidden_size)
    if (
        sizes == (second.input_size, second.hidden_size)
        and len(gaps) == 1
        and 0 not in gaps
        and all(a.base is not None and a.base is b.base for a, b in pairs)
    ):
        (gap,) = gaps
        views = (
            np.lib.stride_tricks.as_strided(a, (2, *a.shape), (gap, *a.strides)) for a, _ in pairs
        )
        return (GRUCellParams(*views, *sizes),)
    return tuple(
        replace(c, **{n: getattr(c, n)[None] for n in CELL_FIELDS}) for c in (first, second)
    )


@dataclass
class _SequenceCache:
    """The values of a stack of S directions at every step.

    ``z`` holds [x, h_prev] and ``zc`` holds [x, R * h_prev], (S, T, B,
    n_in + H), so that each direction's reshapes to (T*B, n_in + H) with no
    copy; ``gates`` holds U and R, (T, 2, S, B, H), and ``h_tilde`` is
    (T, S, B, H), so that each step's values are one contiguous block.
    """

    z: np.ndarray
    zc: np.ndarray
    gates: np.ndarray
    h_tilde: np.ndarray


@dataclass
class _BiGRUCache:
    runs: tuple[_SequenceCache, ...]  # one per stack of the layer
    mask_fwd: np.ndarray | None
    mask_bwd: np.ndarray | None


def _dropout_mask(
    rng: np.random.Generator, shape: tuple[int, ...], rate: float
) -> np.ndarray | None:
    if rate <= 0.0:
        return None
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(float) / keep


def _gru_sequence_forward(
    cells: GRUCellParams, sequences: tuple[np.ndarray, ...], keep: bool
) -> tuple[np.ndarray, _SequenceCache | None]:
    """Run a stack of S cells, each over its own (T, B, width) sequence.

    Returns the states, (T, S, B, H), and the cache, or None without
    ``keep``.  Every step writes into arrays allocated once per sequence:
    with ``keep`` they span the T steps, without it they hold one.  Each
    matmul runs the S directions' products in one call; each product, sum
    and activation is the one a single step of one direction on fresh
    arrays computes, so the values are the same bits.
    """
    S, H = len(sequences), cells.hidden_size
    T, B, n_in = sequences[0].shape
    depth = T if keep else 1  # steps the z, zc, gates and h_tilde arrays hold
    z = np.empty((S, depth, B, n_in + H))
    zc = np.empty_like(z)
    gates = np.empty((depth, 2, S, B, H))
    h_tilde = np.empty((depth, S, B, H))
    out = np.empty((T, S, B, H))
    W_U, W_R, W_h = (w.swapaxes(-1, -2) for w in (cells.W_U, cells.W_R, cells.W_h))
    b_UR = np.array((cells.b_U, cells.b_R))[..., None, :]
    b_h = cells.b_h[..., None, :]
    z_steps, zc_steps = z.swapaxes(0, 1), zc.swapaxes(0, 1)  # step first
    h = np.zeros((S, B, H))
    for t in range(T):
        k = t % depth  # the slot of step t
        if k == 0:  # the input part of steps t .. t + depth - 1
            for z_s, sequence in zip(z, sequences):
                z_s[..., :n_in] = sequence[t : t + depth]
            zc[..., :n_in] = z[..., :n_in]
        z_t, zc_t, a, c, h_t = z_steps[k], zc_steps[k], gates[k], h_tilde[k], out[t]
        z_t[..., n_in:] = h
        np.matmul(z_t, W_U, out=a[0])
        np.matmul(z_t, W_R, out=a[1])
        a += b_UR
        sigmoid(a, out=a)
        U, R = a
        np.multiply(R, h, out=zc_t[..., n_in:])
        np.matmul(zc_t, W_h, out=c)
        c += b_h
        np.tanh(c, out=c)
        np.multiply(1.0 - U, h, out=h_t)
        h_t += U * c
        h = h_t
    if not np.isfinite(out).all():
        raise DivergenceError("non-finite hidden state")
    return out, (_SequenceCache(z, zc, gates, h_tilde) if keep else None)


def _bigru_forward(
    stacks: _Layer,
    dropout_fwd: float,
    dropout_bwd: float,
    sequence: np.ndarray,
    mode: str,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, _BiGRUCache | None]:
    """Run both directions over a (time, batch, width) sequence.

    The backward direction consumes the flipped sequence and its output is
    flipped back, so output step t concatenates the forward state after
    seeing x[0..t] with the backward state after seeing x[t..T-1].
    Inverted dropout is applied per direction in train mode only, the
    forward direction's mask drawn first.  Only train mode keeps the
    caches; eval mode returns None for them.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    if train and (dropout_fwd > 0 or dropout_bwd > 0) and rng is None:
        raise ValueError("train mode with dropout needs an rng")
    directions = (sequence, sequence[::-1])
    groups = (directions,) if len(stacks) == 1 else zip(directions)  # each stack's sequences
    outs, runs = zip(*(_gru_sequence_forward(c, g, train) for c, g in zip(stacks, groups)))
    out_f, out_b_rev = (states for out in outs for states in out.swapaxes(0, 1))
    masks = []
    for out, rate in ((out_f, dropout_fwd), (out_b_rev, dropout_bwd)):
        mask = _dropout_mask(rng, out.shape, rate) if train else None
        if mask is not None:
            out *= mask
        masks.append(mask)
    out = np.concatenate([out_f, out_b_rev[::-1]], axis=2)
    return out, (_BiGRUCache(runs, *masks) if train else None)


def _gate_gradients(
    cells: GRUCellParams, d_out: np.ndarray, cache: _SequenceCache
) -> list[np.ndarray]:
    """The dh recurrence of a stack, run back over its T steps: the gradients
    of the h~, U and R pre-activations, each (T, S, B, H) like ``d_out``.
    Every other array is freed on return; ``1-U`` and ``1-R`` are one step's.
    """
    T, S, B, H = d_out.shape
    n_in = cells.input_size
    W_Uh, W_Rh, W_hh = (w[..., n_in:] for w in (cells.W_U, cells.W_R, cells.W_h))
    h_prev = cache.z[..., n_in:].swapaxes(0, 1)  # step first
    gates = cache.gates
    d_tanh = 1.0 - cache.h_tilde**2
    h_step = cache.h_tilde - h_prev
    da_h, da_U, da_R = np.empty(d_out.shape), np.empty(d_out.shape), np.empty(d_out.shape)
    one_minus = np.empty(gates.shape[1:])  # 1-U and 1-R of one step
    one_minus_U, one_minus_R = one_minus
    dh = np.zeros((S, B, H))
    for t in range(T - 1, -1, -1):
        # each product is formed left to right, as dh * U * d_tanh[t] would be
        a_U, a_R, a_h, U_R, h_prev_t = da_U[t], da_R[t], da_h[t], gates[t], h_prev[t]
        U, R = U_R
        np.subtract(1.0, U_R, out=one_minus)
        dh = d_out[t] + dh
        np.multiply(dh, U, out=a_h)
        a_h *= d_tanh[t]
        dRh = a_h @ W_hh
        np.multiply(dh, h_step[t], out=a_U)
        a_U *= U
        a_U *= one_minus_U
        np.multiply(dRh, h_prev_t, out=a_R)
        a_R *= R
        a_R *= one_minus_R
        dh = dh * one_minus_U + dRh * R + (a_U @ W_Uh + a_R @ W_Rh)
    return [da_h, da_U, da_R]


def _gru_sequence_backward(
    cells: GRUCellParams,
    d_out: np.ndarray,
    cache: _SequenceCache,
    grads: GRUCellParams,
) -> np.ndarray:
    """Backprop a stack over its T steps into ``grads`` (overwritten).

    ``d_out`` is (T, S, B, H), like the states; returns dx, (S, T, B, n_in).
    Each gate's gradients of all steps (:func:`_gate_gradients`) are laid
    out as (S, T*B, H), so its weight gradient is one matmul.
    """
    T, S, B, H = d_out.shape
    n_in = cells.input_size
    gradients = _gate_gradients(cells, d_out, cache)
    z, zc = (a.reshape(S, T * B, n_in + H) for a in (cache.z, cache.zc))
    # each gate's gradients in turn are copied into (S, T, B, H) order, so that
    # BLAS sees each direction's rows as the single direction does (a reshaped
    # view may not); popped, so that each step-first array is freed once copied
    da = np.empty((S, T, B, H))
    rows, dx = da.reshape(S, T * B, H), None
    for W, z_in, g_W, g_b in (
        (cells.W_h, zc, grads.W_h, grads.b_h),
        (cells.W_U, z, grads.W_U, grads.b_U),
        (cells.W_R, z, grads.W_R, grads.b_R),
    ):
        da[...] = gradients.pop(0).swapaxes(0, 1)
        np.matmul(rows.swapaxes(-1, -2), z_in, out=g_W)
        rows.sum(axis=-2, out=g_b)
        if dx is None:  # summed in place, h then U then R, as left to right
            dx = rows @ W[..., :n_in]
        else:
            dx += rows @ W[..., :n_in]
    return dx.reshape(S, T, B, n_in)


def _bigru_backward(
    stacks: _Layer,
    grad_stacks: _Layer,
    dout: np.ndarray,
    cache: _BiGRUCache,
) -> np.ndarray:
    """Backprop both directions into ``grad_stacks``, which stack as ``stacks``; returns d(input)."""
    T, B, _ = dout.shape
    hf = stacks[0].hidden_size
    d_outs = [np.empty((T, len(c.W_U), B, c.hidden_size)) for c in stacks]  # one per stack
    d_f, d_b_rev = (d[:, s] for d in d_outs for s in range(d.shape[1]))
    # each direction times its mask, or times 1.0 without one, which keeps every bit
    np.multiply(dout[..., :hf], 1.0 if cache.mask_fwd is None else cache.mask_fwd, out=d_f)
    np.multiply(dout[::-1, :, hf:], 1.0 if cache.mask_bwd is None else cache.mask_bwd, out=d_b_rev)
    dx_f, dx_b_rev = (
        dx for args in zip(stacks, d_outs, cache.runs, grad_stacks)
        for dx in _gru_sequence_backward(*args)
    )
    return dx_f + dx_b_rev[::-1]


def _cell_sizes(gru_units: tuple[int, int, int, int]):
    """(name, input size, hidden size) of each of the four cells."""
    g1, g2, _, _ = gru_units
    return zip(CELL_NAMES, (1, 1, g1 + g2, g1 + g2), gru_units)


def tensor_layout(gru_units: tuple[int, int, int, int]) -> list[tuple[str, tuple[int, ...]]]:
    """Name and shape of every trainable tensor, in buffer and model-file order."""
    layout = []
    for cname, n_in, hid in _cell_sizes(gru_units):
        for fname in CELL_FIELDS:
            layout.append((f"{cname}.{fname}", (hid, n_in + hid) if fname[0] == "W" else (hid,)))
    return layout + [("dense.w", (gru_units[2] + gru_units[3],)), ("dense.b", ())]


@dataclass
class ModelParams:
    """All trainable tensors: four GRU cells plus the dense head.

    Every tensor is a view into ``flat``, so writing to a view writes to
    the buffer and vice versa.  Gradients are held in the same form.
    ``layers`` holds each block's cells as stacks (see :func:`_layer_stacks`):
    one stack of two where the block's two cells are of equal size, else two
    stacks of one.
    """

    flat: np.ndarray
    cells: tuple[GRUCellParams, GRUCellParams, GRUCellParams, GRUCellParams]
    dense_w: np.ndarray
    dense_b: np.ndarray  # shape ()
    layers: tuple[_Layer, _Layer] = field(init=False)

    def __post_init__(self) -> None:
        self.layers = (_layer_stacks(*self.cells[:2]), _layer_stacks(*self.cells[2:]))

    @classmethod
    def from_flat(cls, gru_units: tuple[int, int, int, int], flat: np.ndarray) -> "ModelParams":
        """Views of ``flat`` (1-D, contiguous, used in place) laid out for ``gru_units``."""
        layout = tensor_layout(gru_units)
        sizes = [math.prod(shape) for _, shape in layout]
        if flat.shape != (sum(sizes),):
            raise ValueError(
                f"buffer of shape {flat.shape}, but units {gru_units} need {sum(sizes)} values"
            )
        views, offset = {}, 0
        for (name, shape), size in zip(layout, sizes):
            views[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        cells = tuple(
            GRUCellParams(
                *(views[f"{cname}.{fname}"] for fname in CELL_FIELDS),
                input_size=n_in,
                hidden_size=hid,
            )
            for cname, n_in, hid in _cell_sizes(gru_units)
        )
        return cls(flat, cells, views["dense.w"], views["dense.b"])

    @property
    def gru_units(self) -> tuple[int, int, int, int]:
        return tuple(cell.hidden_size for cell in self.cells)

    def zeros_like(self) -> "ModelParams":
        return ModelParams.from_flat(self.gru_units, np.zeros_like(self.flat))


def iter_arrays(params: ModelParams) -> Iterator[tuple[str, np.ndarray]]:
    for cname, cell in zip(CELL_NAMES, params.cells):
        for fname in CELL_FIELDS:
            yield f"{cname}.{fname}", getattr(cell, fname)
    yield "dense.w", params.dense_w
    yield "dense.b", params.dense_b


@dataclass(frozen=True)
class DualBiGRUSpec:
    """Architecture of the two-block network, plus its parameters once built.

    ``gru_units`` are the hidden sizes of (block-1 forward, block-1
    backward, block-2 forward, block-2 backward); ``dropout_rates`` follow
    the same order.
    """

    window_length: int
    gru_units: tuple[int, int, int, int]
    dropout_rates: tuple[float, float, float, float]
    params: ModelParams | None = None

    def __post_init__(self) -> None:
        if self.window_length < 1:
            raise ValueError("window_length must be positive")
        if len(self.gru_units) != 4 or any(g < 1 for g in self.gru_units):
            raise ValueError("gru_units must be four positive integers")
        if len(self.dropout_rates) != 4 or any(
            not 0.0 <= d <= 0.5 for d in self.dropout_rates
        ):
            raise ValueError("dropout_rates must be four values in [0, 0.5]")
        if self.params is not None:
            shapes = [arr.shape for _, arr in iter_arrays(self.params)]
            if shapes != [shape for _, shape in tensor_layout(self.gru_units)]:
                raise ValueError(f"params lack the tensor shapes of gru_units {self.gru_units}")
            if not np.all(np.isfinite(self.params.flat)):
                raise ValueError("non-finite parameter values")


def init_params(spec: DualBiGRUSpec, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weight matrices, zero biases."""
    size = sum(math.prod(shape) for _, shape in tensor_layout(spec.gru_units))
    params = ModelParams.from_flat(spec.gru_units, np.zeros(size))
    for cell in params.cells:
        for weights in (cell.W_U, cell.W_R, cell.W_h):
            weights[...] = _glorot(rng, weights.shape)
    params.dense_w[...] = _glorot(rng, (1, params.dense_w.size))[0]
    return params


def network_forward(
    spec: DualBiGRUSpec,
    windows: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, tuple | None]:
    """Predict one scalar per window.

    ``windows`` is (batch, window_length) of indicator values; returns the
    (batch,) predictions and, in train mode, the caches needed by
    :func:`network_backward`.  Eval mode keeps no caches and returns None
    for them.
    """
    if spec.params is None:
        raise ValueError("spec has no parameters; call init_params or train first")
    windows = np.atleast_2d(np.asarray(windows, dtype=float))
    if windows.shape[1] != spec.window_length:
        raise ValueError(
            f"window length {windows.shape[1]} != spec window_length {spec.window_length}"
        )
    d1, d2, d3, d4 = spec.dropout_rates
    layer1, layer2 = spec.params.layers
    seq = windows.T[:, :, None]  # (T, B, 1)
    out1, cache1 = _bigru_forward(layer1, d1, d2, seq, mode, rng)
    out2, cache2 = _bigru_forward(layer2, d3, d4, out1, mode, rng)
    last = out2[-1]
    y = last @ spec.params.dense_w + spec.params.dense_b
    return y, (None if cache1 is None else (cache1, cache2, last, out2.shape))


def network_backward(
    spec: DualBiGRUSpec, dy: np.ndarray, cache: tuple, grads: ModelParams
) -> ModelParams:
    """Gradients of the loss wrt every parameter, given d(loss)/d(prediction).

    Every value of ``grads`` is overwritten, so one buffer serves a whole run.
    """
    cache1, cache2, last, out2_shape = cache
    params = spec.params

    grads.dense_w[...] = last.T @ dy
    grads.dense_b[...] = dy.sum()
    dout2 = np.zeros(out2_shape)
    dout2[-1] = np.outer(dy, params.dense_w)

    dout1 = _bigru_backward(params.layers[1], grads.layers[1], dout2, cache2)
    del dout2  # freed before block 1's backward, whose peak would otherwise be the step's
    _bigru_backward(params.layers[0], grads.layers[0], dout1, cache1)
    return grads


def mse_loss(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared error and its gradient per prediction."""
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ValueError(f"length mismatch: {predictions.shape} vs {targets.shape}")
    diff = predictions - targets
    loss = float(np.mean(diff**2))
    grad = 2.0 * diff / diff.size
    return loss, grad


@dataclass(frozen=True)
class TrainingConfig:
    """Optimizer and schedule settings for one training run."""

    max_epochs: int
    learning_rate: float
    lr_drop_period: int
    lr_drop_factor: float = 0.01
    batch_size: int = 16
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_epochs < 1 or self.batch_size < 1 or self.lr_drop_period < 1:
            raise ValueError("epochs, batch size and drop period must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 < self.lr_drop_factor <= 1.0:
            raise ValueError("lr_drop_factor must lie in (0, 1]")
        if self.lr_drop_period > self.max_epochs:
            raise ValueError("lr_drop_period cannot exceed max_epochs")


# Adam runs over the buffers in blocks of this many values, so that its dozen
# passes over each block find it in cache.  Of blocks from 8k to 128k values,
# 32k and 64k were fastest at 128 and 200 units; 32k needs less scratch.
ADAM_BLOCK = 32_768


@dataclass
class AdamState:
    """First and second moments laid out like ``ModelParams.flat``, and two scratch blocks."""

    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdamState":
        block = min(params.flat.size, ADAM_BLOCK)
        m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
        return cls(m, v, (np.empty(block), np.empty(block)))


def effective_learning_rate(config: TrainingConfig, epoch: int) -> float:
    """Step decay: drop by lr_drop_factor every lr_drop_period epochs."""
    return config.learning_rate * config.lr_drop_factor ** (epoch // config.lr_drop_period)


def adam_step(
    params: ModelParams,
    grads: ModelParams,
    state: AdamState,
    config: TrainingConfig,
    epoch: int,
) -> tuple[ModelParams, AdamState]:
    """One bias-corrected Adam update, in place, allocating no model-sized array.

    ``params -= lr * (m/c1) / (sqrt(v/c2) + eps)``, rounded in that order,
    one ``ADAM_BLOCK`` of the buffers at a time: every value is computed
    alone, so the blocks give the same bits as whole-buffer operations.
    """
    state.t += 1
    lr = effective_learning_rate(config, epoch)
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_epsilon
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for start in range(0, params.flat.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        p, g, m, v = params.flat[block], grads.flat[block], state.m[block], state.v[block]
        s1, s2 = (s[: p.size] for s in state.scratch)
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=s1)
        v *= b2
        v += np.multiply(np.square(g, out=s1), 1.0 - b2, out=s1)
        np.multiply(np.divide(m, c1, out=s1), lr, out=s1)
        np.add(np.sqrt(np.divide(v, c2, out=s2), out=s2), eps, out=s2)
        p -= np.divide(s1, s2, out=s1)
    return params, state


@dataclass(frozen=True)
class SequenceBatch:
    """Sliding windows of indicator values with scalar targets.

    ``indices`` are the window-end positions in the source series, so
    predictions can be reported against the right cycle or month.
    """

    inputs: np.ndarray  # (n, window_length)
    targets: np.ndarray  # (n,)
    indices: np.ndarray  # (n,)

    def __post_init__(self) -> None:
        if not (self.inputs.shape[0] == self.targets.shape[0] == self.indices.shape[0]):
            raise ValueError("inputs and targets must have equal batch dimension")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def make_windows(
    hi_values: np.ndarray,
    soh_values: np.ndarray,
    window_length: int,
    index_offset: int = 0,
) -> SequenceBatch:
    """Stride-1 sliding windows; each target is SOH at the window's end."""
    hi_values = np.asarray(hi_values, dtype=float)
    soh_values = np.asarray(soh_values, dtype=float)
    if hi_values.shape != soh_values.shape:
        raise ValueError("indicator and SOH series must be aligned")
    n = hi_values.size
    if n < window_length:
        raise ValueError(f"series length {n} shorter than window {window_length}")
    windows = np.lib.stride_tricks.sliding_window_view(hi_values, window_length).copy()
    targets = soh_values[window_length - 1 :].copy()
    indices = np.arange(window_length - 1, n) + index_offset
    return SequenceBatch(inputs=windows, targets=targets, indices=indices)


def train(
    spec: DualBiGRUSpec, config: TrainingConfig, data: SequenceBatch
) -> tuple[DualBiGRUSpec, list[float]]:
    """Train on shuffled mini-batches; returns the fitted spec and epoch losses.

    The input spec is never mutated.  Bit-reproducible for a fixed seed on
    one platform.
    """
    if len(data) == 0:
        raise ValueError("no training windows")
    if spec.params is None:
        params = init_params(spec, derive_rng(config.seed, "init"))
    else:
        params = ModelParams.from_flat(spec.gru_units, spec.params.flat.copy())
    work = replace(spec, params=params)
    dropout_rng = derive_rng(config.seed, "dropout")
    shuffle_rng = derive_rng(config.seed, "shuffle")
    state = AdamState.zeros_like(params)
    grads = params.zeros_like()

    n = len(data)
    losses: list[float] = []
    for epoch in range(config.max_epochs):
        order = shuffle_rng.permutation(n)
        sq_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            preds, cache = network_forward(work, data.inputs[idx], "train", dropout_rng)
            loss, dy = mse_loss(preds, data.targets[idx])
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, batch offset {start}"
                )
            network_backward(work, dy, cache, grads)
            adam_step(params, grads, state, config, epoch)
            sq_sum += loss * idx.size
        losses.append(sq_sum / n)
    return work, losses


def predict(spec: DualBiGRUSpec, windows: np.ndarray) -> np.ndarray:
    """Deterministic eval-mode predictions, one per window."""
    return network_forward(spec, windows)[0]


MODEL_MAGIC = "dual-bigru-model v1"
PIPE_CHUNK_BYTES = 1 << 20  # the most load_model reads from a pipe at once


def _header_lines(spec: DualBiGRUSpec) -> list[str]:
    layout = tensor_layout(spec.gru_units)
    lines = [
        MODEL_MAGIC,
        f"window_length {spec.window_length}",
        "gru_units " + " ".join(str(g) for g in spec.gru_units),
        "dropout_rates " + " ".join(repr(d) for d in spec.dropout_rates),
        "candidate_form reset_gated",  # the one form implemented; v1 files name it
        f"tensors {len(layout)}",
    ]
    for name, shape in layout:
        lines.append(" ".join([name, str(len(shape)), *(str(d) for d in shape)]))
    return lines + ["end-header"]


def save_model(spec: DualBiGRUSpec, path: Path | str) -> None:
    """Self-describing flat file: text header, then row-major float64 data."""
    if spec.params is None:
        raise ValueError("cannot save an unbuilt spec")
    with open(path, "wb") as fh:
        fh.write(("\n".join(_header_lines(spec)) + "\n").encode("ascii"))
        fh.write(memoryview(spec.params.flat.astype("<f8", copy=False)))


def load_model(path: Path | str) -> DualBiGRUSpec:
    """Read a file written by :func:`save_model`; ``ValueError`` naming ``path`` if malformed.

    The header is read line by line up to the first ``end-header``, then the
    data section straight into a parameter buffer of the size the header gives.
    A regular file must hold exactly that many bytes before the buffer is
    allocated, and a pipe is read in bounded chunks, so a corrupt header
    cannot ask for more memory than the file or pipe holds.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model file not found: {path}")
    with open(path, "rb") as fh:
        header = []
        for line in fh:
            header.append(line)
            if line.endswith(b"end-header\n"):
                break
        else:
            raise ValueError(f"{path}: not a model file (missing header terminator)")
        lines = b"".join(header).decode("ascii", errors="replace").splitlines()
        if lines[0] != MODEL_MAGIC:
            raise ValueError(f"{path}: not a model file")
        try:
            fields = dict(line.split(" ", 1) for line in lines[1:6])
            if fields["candidate_form"] != "reset_gated":
                raise ValueError(
                    f"candidate_form {fields['candidate_form']} is not supported (only reset_gated)"
                )
            spec = DualBiGRUSpec(
                window_length=int(fields["window_length"]),
                gru_units=tuple(int(g) for g in fields["gru_units"].split()),
                dropout_rates=tuple(float(d) for d in fields["dropout_rates"].split()),
            )
            if lines != _header_lines(spec):
                raise ValueError("header does not match the v1 layout for its gru_units")
            size = sum(math.prod(shape) for _, shape in tensor_layout(spec.gru_units))
            need = 8 * size
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode):  # sized before anything is allocated
                left = info.st_size - fh.tell()
                data = np.empty(size if left == need else 0, dtype="<f8")
                if left == need:  # counted again, in case the file changed since
                    left = fh.readinto(memoryview(data).cast("B")) + len(fh.read(1))
            else:  # a pipe cannot be sized: bounded chunks, of which ``need`` bytes are kept
                data, left = bytearray(), 0
                while chunk := fh.read(PIPE_CHUNK_BYTES):
                    data += chunk[: max(need - left, 0)]
                    left += len(chunk)
            if left != need:
                raise ValueError(f"{left} data bytes, but units {spec.gru_units} need {need}")
            flat = np.frombuffer(data, dtype="<f8").astype(float, copy=False)
            return replace(spec, params=ModelParams.from_flat(spec.gru_units, flat))
        except KeyError as exc:
            raise ValueError(f"{path}: corrupt model header (missing {exc.args[0]})") from None
        except ValueError as exc:
            raise ValueError(f"{path}: corrupt model file ({exc})") from None
