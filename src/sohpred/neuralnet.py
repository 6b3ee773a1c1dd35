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
operations, and the model file is a text header followed by the buffer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

import numpy as np

from .seeding import derive_rng


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or activation."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1/(1+exp(-x)) for x >= 0, exp(x)/(1+exp(x)) below: exp never overflows
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


@dataclass
class GRUCellParams:
    """Weights of one GRU cell.

    Gate matrices act on [x, h_prev]; the candidate matrix acts on
    [x, R*h_prev].  Only shapes are checked here: finiteness is checked
    once, where parameters enter a :class:`DualBiGRUSpec`.
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
        joint = self.input_size + self.hidden_size
        expected = {
            "W_U": (self.hidden_size, joint),
            "W_R": (self.hidden_size, joint),
            "W_h": (self.hidden_size, joint),
            "b_U": (self.hidden_size,),
            "b_R": (self.hidden_size,),
            "b_h": (self.hidden_size,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_gru_cell(input_size: int, hidden_size: int, rng: np.random.Generator) -> GRUCellParams:
    joint = input_size + hidden_size
    return GRUCellParams(
        W_U=_glorot(rng, (hidden_size, joint)),
        W_R=_glorot(rng, (hidden_size, joint)),
        W_h=_glorot(rng, (hidden_size, joint)),
        b_U=np.zeros(hidden_size),
        b_R=np.zeros(hidden_size),
        b_h=np.zeros(hidden_size),
        input_size=input_size,
        hidden_size=hidden_size,
    )


def flip(sequence: np.ndarray) -> np.ndarray:
    """Reverse the time axis (axis 0)."""
    return np.asarray(sequence)[::-1].copy()


@dataclass
class _SequenceCache:
    """One direction's values at every step, each array indexed by step first.

    ``z`` holds [x, h_prev] and ``zc`` holds [x, R * h_prev], (T, B, n_in + H);
    ``gates`` holds U and R, (T, 2, B, H); ``h_tilde`` is (T, B, H).
    """

    z: np.ndarray
    zc: np.ndarray
    gates: np.ndarray
    h_tilde: np.ndarray


@dataclass
class _BiGRUCache:
    fwd: _SequenceCache
    bwd: _SequenceCache
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
    params: GRUCellParams, sequence: np.ndarray
) -> tuple[np.ndarray, _SequenceCache]:
    """Run one direction over a (T, B, width) sequence; returns its states and cache.

    Every step writes into arrays allocated once per sequence, whose input
    part is filled once.  Each product, sum and activation is the one a
    single step on fresh arrays computes, so the values are the same bits.
    """
    T, B, n_in = sequence.shape
    H = params.hidden_size
    z = np.empty((T, B, n_in + H))
    zc = np.empty_like(z)
    z[:, :, :n_in] = zc[:, :, :n_in] = sequence
    gates = np.empty((T, 2, B, H))
    h_tilde = np.empty((T, B, H))
    out = np.empty((T, B, H))
    W_U, W_R, W_h = params.W_U.T, params.W_R.T, params.W_h.T
    b_UR = np.array((params.b_U, params.b_R))[:, None, :]
    h = np.zeros((B, H))
    for t in range(T):
        z[t, :, n_in:] = h
        a, c = gates[t], h_tilde[t]
        np.matmul(z[t], W_U, out=a[0])
        np.matmul(z[t], W_R, out=a[1])
        a += b_UR
        a[...] = sigmoid(a)
        U, R = a
        np.multiply(R, h, out=zc[t, :, n_in:])
        np.matmul(zc[t], W_h, out=c)
        c += params.b_h
        np.tanh(c, out=c)
        np.multiply(1.0 - U, h, out=out[t])
        out[t] += U * c
        h = out[t]
    if not np.isfinite(out).all():
        raise DivergenceError("non-finite hidden state")
    return out, _SequenceCache(z, zc, gates, h_tilde)


def bigru_forward(
    forward_params: GRUCellParams,
    backward_params: GRUCellParams,
    dropout_fwd: float,
    dropout_bwd: float,
    sequence: np.ndarray,
    mode: str = "eval",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, _BiGRUCache]:
    """Run both directions over a (time, batch, width) sequence.

    The backward direction consumes the flipped sequence and its output is
    flipped back, so output step t concatenates the forward state after
    seeing x[0..t] with the backward state after seeing x[t..T-1].
    Inverted dropout is applied per direction in train mode only.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    train = mode == "train"
    if train and (dropout_fwd > 0 or dropout_bwd > 0) and rng is None:
        raise ValueError("train mode with dropout needs an rng")
    out_f, fwd_cache = _gru_sequence_forward(forward_params, sequence)
    mask_f = _dropout_mask(rng, out_f.shape, dropout_fwd) if train else None
    if mask_f is not None:
        out_f *= mask_f

    out_b_rev, bwd_cache = _gru_sequence_forward(backward_params, sequence[::-1])
    mask_b = _dropout_mask(rng, out_b_rev.shape, dropout_bwd) if train else None
    if mask_b is not None:
        out_b_rev *= mask_b

    out = np.concatenate([out_f, out_b_rev[::-1]], axis=2)
    return out, _BiGRUCache(fwd_cache, bwd_cache, mask_f, mask_b)


def _gru_sequence_backward(
    params: GRUCellParams, d_out: np.ndarray, cache: _SequenceCache, grads: GRUCellParams
) -> np.ndarray:
    """Backprop one direction over its T steps into ``grads`` (overwritten); returns dx.

    Only the dh recurrence runs per step.  The gate gradients of all steps
    are stacked as (T*B, H), so each weight gradient is one matmul.
    """
    T, B, H = d_out.shape
    n_in = params.input_size
    W_U, W_R, W_h = params.W_U, params.W_R, params.W_h
    h_prev = cache.z[:, :, n_in:]
    U, R = cache.gates[:, 0], cache.gates[:, 1]
    h_tilde = cache.h_tilde
    one_minus_U, one_minus_R = 1.0 - U, 1.0 - R
    d_tanh = 1.0 - h_tilde**2
    h_step = h_tilde - h_prev
    da_U, da_R, da_h = np.empty((3, T, B, H))
    dh = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        dh = d_out[t] + dh
        da_h[t] = dh * U[t] * d_tanh[t]
        dRh = da_h[t] @ W_h[:, n_in:]
        da_U[t] = dh * h_step[t] * U[t] * one_minus_U[t]
        da_R[t] = dRh * h_prev[t] * R[t] * one_minus_R[t]
        dh = dh * one_minus_U[t] + dRh * R[t] + (da_U[t] @ W_U[:, n_in:] + da_R[t] @ W_R[:, n_in:])

    da_U, da_R, da_h = (a.reshape(T * B, H) for a in (da_U, da_R, da_h))
    z, zc = (a.reshape(T * B, n_in + H) for a in (cache.z, cache.zc))
    np.matmul(da_U.T, z, out=grads.W_U)
    np.matmul(da_R.T, z, out=grads.W_R)
    np.matmul(da_h.T, zc, out=grads.W_h)
    da_U.sum(axis=0, out=grads.b_U)
    da_R.sum(axis=0, out=grads.b_R)
    da_h.sum(axis=0, out=grads.b_h)
    dx = da_h @ W_h[:, :n_in] + da_U @ W_U[:, :n_in] + da_R @ W_R[:, :n_in]
    return dx.reshape(T, B, n_in)


def bigru_backward(
    forward_params: GRUCellParams,
    backward_params: GRUCellParams,
    dout: np.ndarray,
    cache: _BiGRUCache,
    grads_fwd: GRUCellParams,
    grads_bwd: GRUCellParams,
) -> np.ndarray:
    """Backprop through both directions into the cells' gradients; returns d(input)."""
    hf = forward_params.hidden_size
    d_f = dout[:, :, :hf]
    d_b_rev = flip(dout[:, :, hf:])
    if cache.mask_fwd is not None:
        d_f = d_f * cache.mask_fwd
    if cache.mask_bwd is not None:
        d_b_rev = d_b_rev * cache.mask_bwd
    dseq = _gru_sequence_backward(forward_params, d_f, cache.fwd, grads_fwd)
    dseq += flip(_gru_sequence_backward(backward_params, d_b_rev, cache.bwd, grads_bwd))
    return dseq


CELL_NAMES = ("m1f", "m1b", "m2f", "m2b")
CELL_FIELDS = ("W_U", "W_R", "W_h", "b_U", "b_R", "b_h")


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
    """

    flat: np.ndarray
    cells: tuple[GRUCellParams, GRUCellParams, GRUCellParams, GRUCellParams]
    dense_w: np.ndarray
    dense_b: np.ndarray  # shape ()

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
) -> tuple[np.ndarray, tuple]:
    """Predict one scalar per window.

    ``windows`` is (batch, window_length) of indicator values; returns the
    (batch,) predictions and the caches needed by :func:`network_backward`.
    """
    if spec.params is None:
        raise ValueError("spec has no parameters; call init_params or train first")
    windows = np.atleast_2d(np.asarray(windows, dtype=float))
    if windows.shape[1] != spec.window_length:
        raise ValueError(
            f"window length {windows.shape[1]} != spec window_length {spec.window_length}"
        )
    d1, d2, d3, d4 = spec.dropout_rates
    c = spec.params.cells
    seq = windows.T[:, :, None]  # (T, B, 1)
    out1, cache1 = bigru_forward(c[0], c[1], d1, d2, seq, mode, rng)
    out2, cache2 = bigru_forward(c[2], c[3], d3, d4, out1, mode, rng)
    last = out2[-1]
    y = last @ spec.params.dense_w + spec.params.dense_b
    return y, (cache1, cache2, last, out2.shape)


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

    dout1 = bigru_backward(
        params.cells[2], params.cells[3], dout2, cache2, grads.cells[2], grads.cells[3]
    )
    bigru_backward(
        params.cells[0], params.cells[1], dout1, cache1, grads.cells[0], grads.cells[1]
    )
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


@dataclass
class AdamState:
    """First and second moments, and two scratch buffers, laid out like ``ModelParams.flat``."""

    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]
    t: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdamState":
        m, v, s1, s2 = (np.zeros_like(params.flat) for _ in range(4))
        return cls(m, v, (s1, s2))


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

    ``params -= lr * (m/c1) / (sqrt(v/c2) + eps)``, rounded in that order.
    """
    state.t += 1
    lr = effective_learning_rate(config, epoch)
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_epsilon
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    g, m, v = grads.flat, state.m, state.v
    s1, s2 = state.scratch
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=s1)
    v *= b2
    v += np.multiply(np.square(g, out=s1), 1.0 - b2, out=s1)
    np.multiply(np.divide(m, c1, out=s1), lr, out=s1)
    np.add(np.sqrt(np.divide(v, c2, out=s2), out=s2), eps, out=s2)
    params.flat -= np.divide(s1, s2, out=s1)
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
    preds, _ = network_forward(spec, windows, mode="eval")
    return preds


MODEL_MAGIC = "dual-bigru-model v1"


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
        fh.write(spec.params.flat.astype("<f8", copy=False).tobytes())


def load_model(path: Path | str) -> DualBiGRUSpec:
    """Read a file written by :func:`save_model`; ``ValueError`` naming ``path`` if malformed."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model file not found: {path}")
    blob = path.read_bytes()
    try:
        header_end = blob.index(b"end-header\n") + len(b"end-header\n")
    except ValueError:
        raise ValueError(f"{path}: not a model file (missing header terminator)") from None
    lines = blob[:header_end].decode("ascii", errors="replace").splitlines()
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
        flat = np.frombuffer(blob, dtype="<f8", offset=header_end).astype(float)
        return replace(spec, params=ModelParams.from_flat(spec.gru_units, flat))
    except KeyError as exc:
        raise ValueError(f"{path}: corrupt model header (missing {exc.args[0]})") from None
    except ValueError as exc:
        raise ValueError(f"{path}: corrupt model file ({exc})") from None
