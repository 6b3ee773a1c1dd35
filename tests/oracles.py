"""Independent recomputations used as oracles by the test suite.

Everything here is deliberately written separately from the vectorized
implementations it checks: scalar by scalar, or step by step where the
implementation works on a whole sequence at once.
"""

import csv
import math
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from sohpred import ingest
from sohpred import neuralnet as nn


def scalar_cell_oracle(cell, x, h_prev):
    """Pure-python per-element recomputation of one GRU step."""
    n_in, n_h = cell.input_size, cell.hidden_size
    z = list(x) + list(h_prev)
    sig = lambda v: 1.0 / (1.0 + math.exp(-v))
    U = [sig(sum(cell.W_U[i][j] * z[j] for j in range(n_in + n_h)) + cell.b_U[i]) for i in range(n_h)]
    R = [sig(sum(cell.W_R[i][j] * z[j] for j in range(n_in + n_h)) + cell.b_R[i]) for i in range(n_h)]
    zc = list(x) + [R[i] * h_prev[i] for i in range(n_h)]
    h_tilde = [
        math.tanh(sum(cell.W_h[i][j] * zc[j] for j in range(len(zc))) + cell.b_h[i])
        for i in range(n_h)
    ]
    return [(1.0 - U[i]) * h_prev[i] + U[i] * h_tilde[i] for i in range(n_h)]


def forward_oracle(spec, window):
    """Independent step-by-step recomputation of the whole network."""
    p = spec.params

    def run_direction(cell, xs):
        h = [0.0] * cell.hidden_size
        out = []
        for x in xs:
            h = scalar_cell_oracle(cell, x, h)
            out.append(h)
        return out

    xs = [[float(v)] for v in window]
    fwd1 = run_direction(p.cells[0], xs)
    bwd1 = run_direction(p.cells[1], xs[::-1])[::-1]
    concat1 = [f + b for f, b in zip(fwd1, bwd1)]
    fwd2 = run_direction(p.cells[2], concat1)
    bwd2 = run_direction(p.cells[3], concat1[::-1])[::-1]
    last = fwd2[-1] + bwd2[-1]
    return sum(w * h for w, h in zip(p.dense_w, last)) + float(p.dense_b)


def sigmoid_reference(x):
    """Two-branch sigmoid: 1/(1+exp(-x)) where x >= 0, exp(x)/(1+exp(x)) elsewhere."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def gru_cell_forward(params, x, h_prev):
    """One GRU step on fresh arrays; returns (h, cache).  Accepts (batch, dim) arrays or vectors."""
    single = x.ndim == 1
    if single:
        x = x[None, :]
        h_prev = h_prev[None, :]
    if x.shape[1] != params.input_size or h_prev.shape[1] != params.hidden_size:
        raise ValueError(
            f"dimension mismatch: x {x.shape}, h {h_prev.shape} for cell "
            f"({params.input_size} -> {params.hidden_size})"
        )
    z = np.concatenate([x, h_prev], axis=1)
    U = nn.sigmoid(z @ params.W_U.T + params.b_U)
    R = nn.sigmoid(z @ params.W_R.T + params.b_R)
    zc = np.concatenate([x, R * h_prev], axis=1)
    h_tilde = np.tanh(zc @ params.W_h.T + params.b_h)
    h_new = (1.0 - U) * h_prev + U * h_tilde
    if not np.all(np.isfinite(h_new)):
        raise nn.DivergenceError("non-finite hidden state")
    cache = (x, h_prev, U, R, h_tilde)
    return (h_new[0] if single else h_new), cache


def per_step_bigru_forward(forward_params, backward_params, dropout_fwd, dropout_bwd,
                           sequence, mode="eval", rng=None):
    """:func:`nn.bigru_forward` with one :func:`gru_cell_forward` call per step."""
    train = mode == "train"

    def direction(cell, seq):
        out, h = [], np.zeros((seq.shape[1], cell.hidden_size))
        for x in seq:
            h, _ = gru_cell_forward(cell, x, h)
            out.append(h)
        return np.array(out)

    out_f = direction(forward_params, sequence)
    mask_f = nn._dropout_mask(rng, out_f.shape, dropout_fwd) if train else None
    if mask_f is not None:
        out_f = out_f * mask_f
    out_b_rev = direction(backward_params, sequence[::-1])
    mask_b = nn._dropout_mask(rng, out_b_rev.shape, dropout_bwd) if train else None
    if mask_b is not None:
        out_b_rev = out_b_rev * mask_b
    return np.concatenate([out_f, out_b_rev[::-1]], axis=2)


def sequence_forward_reference(params, sequence):
    """One direction over a (T, B, width) sequence on its own: the reference for the stacked loop.

    Returns the (T, B, H) states and (z, zc, gates, h_tilde), each indexed by step first.
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
        a[...] = nn.sigmoid(a)
        U, R = a
        np.multiply(R, h, out=zc[t, :, n_in:])
        np.matmul(zc[t], W_h, out=c)
        c += params.b_h
        np.tanh(c, out=c)
        np.multiply(1.0 - U, h, out=out[t])
        out[t] += U * c
        h = out[t]
    if not np.isfinite(out).all():
        raise nn.DivergenceError("non-finite hidden state")
    return out, (z, zc, gates, h_tilde)


def sequence_backward_reference(params, d_out, cache, grads):
    """Backprop of one direction alone into ``grads`` (a cell); returns dx, (T, B, n_in)."""
    T, B, H = d_out.shape
    n_in = params.input_size
    z, zc, gates, h_tilde = cache
    W_U, W_R, W_h = params.W_U, params.W_R, params.W_h
    h_prev = z[:, :, n_in:]
    U, R = gates[:, 0], gates[:, 1]
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
    z, zc = (a.reshape(T * B, n_in + H) for a in (z, zc))
    np.matmul(da_U.T, z, out=grads.W_U)
    np.matmul(da_R.T, z, out=grads.W_R)
    np.matmul(da_h.T, zc, out=grads.W_h)
    da_U.sum(axis=0, out=grads.b_U)
    da_R.sum(axis=0, out=grads.b_R)
    da_h.sum(axis=0, out=grads.b_h)
    dx = da_h @ W_h[:, :n_in] + da_U @ W_U[:, :n_in] + da_R @ W_R[:, :n_in]
    return dx.reshape(T, B, n_in)


def bigru_forward_reference(forward_params, backward_params, dropout_fwd, dropout_bwd,
                            sequence, mode="eval", rng=None):
    """:func:`nn.bigru_forward` with each direction run alone; returns (out, cache)."""
    train = mode == "train"
    out_f, cache_f = sequence_forward_reference(forward_params, sequence)
    mask_f = nn._dropout_mask(rng, out_f.shape, dropout_fwd) if train else None
    if mask_f is not None:
        out_f *= mask_f
    out_b_rev, cache_b = sequence_forward_reference(backward_params, sequence[::-1])
    mask_b = nn._dropout_mask(rng, out_b_rev.shape, dropout_bwd) if train else None
    if mask_b is not None:
        out_b_rev *= mask_b
    out = np.concatenate([out_f, out_b_rev[::-1]], axis=2)
    return out, (cache_f, cache_b, mask_f, mask_b)


def bigru_backward_reference(forward_params, backward_params, dout, cache, grads_fwd, grads_bwd):
    """:func:`nn.bigru_backward` with each direction run alone; returns d(input)."""
    cache_f, cache_b, mask_f, mask_b = cache
    hf = forward_params.hidden_size
    d_f = dout[:, :, :hf]
    d_b_rev = nn.flip(dout[:, :, hf:])
    if mask_f is not None:
        d_f = d_f * mask_f
    if mask_b is not None:
        d_b_rev = d_b_rev * mask_b
    dseq = sequence_backward_reference(forward_params, d_f, cache_f, grads_fwd)
    dseq += nn.flip(sequence_backward_reference(backward_params, d_b_rev, cache_b, grads_bwd))
    return dseq


def network_reference(spec, windows, dy_of, mode="eval", rng=None):
    """Forward and backward of the whole network with each direction run alone.

    ``dy_of(predictions)`` gives d(loss)/d(prediction).  Returns the
    predictions and the gradients (a fresh :class:`nn.ModelParams`).
    """
    p = spec.params
    d1, d2, d3, d4 = spec.dropout_rates
    seq = np.atleast_2d(np.asarray(windows, dtype=float)).T[:, :, None]
    out1, cache1 = bigru_forward_reference(p.cells[0], p.cells[1], d1, d2, seq, mode, rng)
    out2, cache2 = bigru_forward_reference(p.cells[2], p.cells[3], d3, d4, out1, mode, rng)
    last = out2[-1]
    y = last @ p.dense_w + p.dense_b
    dy = dy_of(y)
    grads = p.zeros_like()
    grads.dense_w[...] = last.T @ dy
    grads.dense_b[...] = dy.sum()
    dout2 = np.zeros(out2.shape)
    dout2[-1] = np.outer(dy, p.dense_w)
    dout1 = bigru_backward_reference(p.cells[2], p.cells[3], dout2, cache2, *grads.cells[2:])
    bigru_backward_reference(p.cells[0], p.cells[1], dout1, cache1, *grads.cells[:2])
    return y, grads


def gru_cell_backward(params, dh, cache, grads):
    """Backprop one GRU step; accumulates into ``grads``, returns (dx, dh_prev)."""
    x, h_prev, U, R, h_tilde = cache
    n_in = params.input_size

    dU = dh * (h_tilde - h_prev)
    dh_tilde = dh * U
    dh_prev = dh * (1.0 - U)

    da_h = dh_tilde * (1.0 - h_tilde**2)
    zc = np.concatenate([x, R * h_prev], axis=1)
    grads.W_h += da_h.T @ zc
    grads.b_h += da_h.sum(axis=0)
    dzc = da_h @ params.W_h
    dx = dzc[:, :n_in].copy()
    dRh = dzc[:, n_in:]
    dR = dRh * h_prev
    dh_prev = dh_prev + dRh * R

    da_U = dU * U * (1.0 - U)
    da_R = dR * R * (1.0 - R)
    z = np.concatenate([x, h_prev], axis=1)
    grads.W_U += da_U.T @ z
    grads.b_U += da_U.sum(axis=0)
    grads.W_R += da_R.T @ z
    grads.b_R += da_R.sum(axis=0)
    dz = da_U @ params.W_U + da_R @ params.W_R
    dx += dz[:, :n_in]
    dh_prev = dh_prev + dz[:, n_in:]
    return dx, dh_prev


def per_step_network_backward(spec, dy, cache):
    """Network gradient with one :func:`gru_cell_backward` call per time step."""
    cache1, cache2, last, out2_shape = cache
    params = spec.params
    grads = params.zeros_like()

    def direction(cell, grad, d_seq, seq_cache, s):
        # s is the direction's index in a stacked run, () for a run of its own
        n_in = cell.input_size
        dx_seq = np.zeros(d_seq.shape[:2] + (n_in,))
        dh = np.zeros(d_seq.shape[1:])
        for t in range(d_seq.shape[0] - 1, -1, -1):
            z = seq_cache.z[s][t]
            U, R = (seq_cache.gates[t, k][s] for k in (0, 1))
            step = (z[:, :n_in], z[:, n_in:], U, R, seq_cache.h_tilde[t][s])
            dx_seq[t], dh = gru_cell_backward(cell, d_seq[t] + dh, step, grad)
        return dx_seq

    def block(cells, grads_pair, dout, bicache):
        hf = cells[0].hidden_size
        d_f, d_b_rev = dout[:, :, :hf], dout[::-1, :, hf:]
        if bicache.mask_fwd is not None:
            d_f = d_f * bicache.mask_fwd
        if bicache.mask_bwd is not None:
            d_b_rev = d_b_rev * bicache.mask_bwd
        # (run, index in it) of the forward, then the backward direction
        if len(bicache.runs) == 1:
            fwd, bwd = (bicache.runs[0], 0), (bicache.runs[0], 1)
        else:
            fwd, bwd = ((run, ()) for run in bicache.runs)
        dseq = direction(cells[0], grads_pair[0], d_f, *fwd)
        return dseq + direction(cells[1], grads_pair[1], d_b_rev, *bwd)[::-1]

    grads.dense_w += last.T @ dy
    grads.dense_b += dy.sum()
    dout2 = np.zeros(out2_shape)
    dout2[-1] = np.outer(dy, params.dense_w)
    dout1 = block(params.cells[2:], grads.cells[2:], dout2, cache2)
    block(params.cells[:2], grads.cells[:2], dout1, cache1)
    return grads


def adam_reference(params, grads, state, config, epoch):
    """Bias-corrected Adam as five whole-array lines, allocating its temporaries."""
    state.t += 1
    lr = nn.effective_learning_rate(config, epoch)
    b1, b2, eps = config.adam_beta1, config.adam_beta2, config.adam_epsilon
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    g = grads.flat
    state.m *= b1
    state.m += (1.0 - b1) * g
    state.v *= b2
    state.v += (1.0 - b2) * g**2
    params.flat -= lr * (state.m / c1) / (np.sqrt(state.v / c2) + eps)


def gradcheck(spec, windows, targets, rng_factory, eps=1e-5):
    """Worst relative error of analytic gradients vs central differences."""

    def loss_of():
        preds, cache = nn.network_forward(spec, windows, "train", rng_factory())
        loss, dy = nn.mse_loss(preds, targets)
        return loss, dy, cache

    _, dy, cache = loss_of()
    grads = dict(nn.iter_arrays(nn.network_backward(spec, dy, cache, spec.params.zeros_like())))
    worst = 0.0
    for name, arr in nn.iter_arrays(spec.params):
        g = grads[name]
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            old = arr[ix]
            arr[ix] = old + eps
            lp, _, _ = loss_of()
            arr[ix] = old - eps
            lm, _, _ = loss_of()
            arr[ix] = old
            fd = (lp - lm) / (2 * eps)
            denom = max(abs(fd), abs(float(g[ix])), 1e-8)
            worst = max(worst, abs(fd - float(g[ix])) / denom)
    return worst


def direct_feature_oracle(a):
    """One-line-per-feature recomputation straight from the definitions."""
    a = np.asarray(a, dtype=float)
    peak = max(abs(x) for x in a)
    rms = (sum(x**2 for x in a) / len(a)) ** 0.5
    mean_abs = sum(abs(x) for x in a) / len(a)
    root_sq = (sum(abs(x) ** 0.5 for x in a) / len(a)) ** 2
    kur = (sum(x**4 for x in a) / len(a)) / (sum(x**2 for x in a) / len(a)) ** 2 - 3.0
    return peak / rms, peak / mean_abs, peak / root_sq, rms / mean_abs, kur


def centered_product_oracle(x, y):
    """Two-pass recomputation of the centered-product correlation."""
    mx = sum(x) / len(x)
    my = sum(y) / len(y)
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = (sum((a - mx) ** 2 for a in x) ** 0.5) * (
        sum((b - my) ** 2 for b in y) ** 0.5
    )
    return num / den


def metrics_oracle(true, predicted):
    """Loop-based recomputation of RMSE / MAE / MAPE (percent)."""
    n = len(true)
    sq = sum((t - p) ** 2 for t, p in zip(true, predicted))
    ab = sum(abs(t - p) for t, p in zip(true, predicted))
    pct = sum(abs((t - p) / t) for t, p in zip(true, predicted))
    return (sq / n) ** 0.5, ab / n, pct / n * 100.0


# ---------------------------------------------------------------------------
# per-row reference parsers: every row is read, converted and checked on its
# own, in file order, and each segment is grown one sample at a time


def _open_rows(path):
    """Header, then the data rows streamed with their 1-based line numbers."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ingest.ParseError(f"{path}: unreadable file: {exc}") from exc
    first = next((ln for ln in lines if ln.strip()), "")
    reader = csv.reader(lines, delimiter="\t" if "\t" in first else ",")

    def rows():
        try:
            for row in reader:
                if "".join(row).strip():
                    yield reader.line_num, row
        except csv.Error as exc:
            raise ingest.ParseError(f"{path}:{reader.line_num}: {exc}") from None

    numbered = rows()
    _, header = next(numbered, (0, None))
    if header is None:
        raise ingest.ParseError(f"{path}: empty file")
    return [h.strip() for h in header], numbered


def _finite(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


def _column(header, name, path):
    try:
        return header.index(name)
    except ValueError:
        raise ingest.ParseError(f"{path}: missing mapped column {name!r}") from None


def _parse_timestamp(raw):
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


def parse_cycle_file_per_row(path, schema=ingest.CycleSchema()):
    """Row-by-row :func:`ingest.parse_cycle_file`."""
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
        raise ingest.ParseError(f"{path}: schema maps neither charge nor current")
    i_cap = _column(header, schema.capacity, path) if schema.capacity in header else None

    lo, hi = schema.voltage_window
    dropped = 0
    by_cycle = {}
    for lineno, row in rows:
        try:
            cyc = int(_finite(row[i_cycle]))
            t = _finite(row[i_time])
            v = float(row[i_volt])
            if not lo <= v <= hi:  # NaN falls outside the window too
                dropped += 1
                continue
            q = _finite(row[i_q if i_q is not None else i_cur])
            cap = _finite(row[i_cap]) if i_cap is not None and row[i_cap] != "" else None
        except (ValueError, IndexError) as exc:
            raise ingest.ParseError(f"{path}:{lineno}: bad row: {exc}") from exc
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
            records.append(ingest.CycleRecord(cyc, np.column_stack([t, v, q]), capacity))
        except ValueError as exc:
            raise ingest.ParseError(f"{path}: cycle {cyc}: {exc}") from None
    if not records:
        raise ingest.ParseError(f"{path}: zero usable rows")
    return records, dropped


def parse_fleet_file_per_row(path, schema=ingest.FleetSchema(), source_id=None):
    """Row-by-row :func:`ingest.parse_fleet_file`."""
    header, rows = _open_rows(path)
    i_ts = _column(header, schema.timestamp, path)
    i_cur = _column(header, schema.current, path)
    i_volt = _column(header, schema.voltage, path)
    i_soc = _column(header, schema.soc, path)
    i_temp = _column(header, schema.temperature, path) if schema.temperature in header else None
    source = source_id if source_id is not None else Path(path).stem

    parsed = []
    for lineno, row in rows:
        try:
            ts = _parse_timestamp(row[i_ts])
            cur = _finite(row[i_cur])
            volt = _finite(row[i_volt])
            soc = _finite(row[i_soc])
            temp = _finite(row[i_temp]) if i_temp is not None else None
        except (ValueError, IndexError) as exc:
            raise ingest.ParseError(f"{path}:{lineno}: bad row: {exc}") from exc
        if schema.soc_in_percent:
            soc /= 100.0
        parsed.append((ts, cur, volt, soc, temp, lineno))
    if not parsed:
        raise ingest.ParseError(f"{path}: empty file")
    parsed.sort(key=lambda p: p[0])

    segments = []
    chunk = []
    for point in parsed:
        if chunk and (point[0] - chunk[-1][0]).total_seconds() > schema.gap_threshold_s:
            segments.append(_build_segment(source, chunk, path))
            chunk = []
        chunk.append(point)
    segments.append(_build_segment(source, chunk, path))
    return [seg for seg in segments if seg is not None]


def _build_segment(source, chunk, path):
    if len(chunk) < 2:
        return None
    start = chunk[0][0]
    # drop SOC dips and exact repeats; a sample is (time, current, voltage, soc, temperature)
    kept = []
    soc_max = -math.inf
    for ts, cur, volt, soc, temp, lineno in chunk:
        if soc < soc_max:
            continue
        soc_max = soc
        sample = ((ts - start).total_seconds(), cur, volt, soc, temp)
        if kept and sample[0] <= kept[-1][0]:
            if sample == kept[-1]:
                continue
            raise ingest.ParseError(
                f"{path}:{lineno}: timestamp {ts.isoformat()} repeated with different values"
            )
        kept.append(sample)
    if len(kept) < 2:
        return None
    time, current, voltage, soc, temp = (np.array(col) for col in zip(*kept))
    try:
        return ingest.ChargeSegment(
            source, start, time, current, voltage, soc, None if temp[0] is None else temp
        )
    except ValueError as exc:
        raise ingest.ParseError(f"{path}: segment starting {start.isoformat()}: {exc}") from None
