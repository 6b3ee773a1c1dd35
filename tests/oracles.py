"""Independent recomputations used as oracles by the test suite.

Everything here is deliberately written scalar-by-scalar, separate from
the vectorized implementations it checks.
"""

import math

import numpy as np

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


def gradcheck(spec, windows, targets, rng_factory, eps=1e-5):
    """Worst relative error of analytic gradients vs central differences."""

    def loss_of():
        preds, cache = nn.network_forward(spec, windows, "train", rng_factory())
        loss, dy = nn.mse_loss(preds, targets)
        return loss, dy, cache

    _, dy, cache = loss_of()
    grads = dict(nn.iter_arrays(nn.network_backward(spec, dy, cache)))
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
