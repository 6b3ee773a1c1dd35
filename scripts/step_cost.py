#!/usr/bin/env python3
"""CPU time per training step at the search domain's corners, and the price of the paper protocol.

Times the forward, backward and Adam parts of one training step with BLAS
on one thread, for each pair of units per layer and batch size (by default
the domain's corners: 25 and 200 units, batch 1 and 20).  It then prices
one candidate at the domain's lowest and highest epoch counts, 150 and 700
epochs of ceil(windows / batch) steps, and the whole protocol: pop 6 × 11
evaluations (the first generation and 10 iterations), one search whatever
the number of seeds.  Every step is counted at the full batch and every
candidate as trained, though a search trains each distinct candidate once,
so both prices are upper bounds.
"""

import argparse
import math
import statistics
import time
from dataclasses import replace

import numpy as np

from sohpred import blas
from sohpred import neuralnet as nn
from sohpred.seeding import derive_rng
from sohpred.ssa import EPOCHS_RANGE

WINDOW_LENGTH = 5  # pipeline.DEFAULT_WINDOW_LENGTH
WINDOWS = 17  # README config: 100 cycles at start fraction 0.25 give 21, the search holds out 4
CANDIDATES = 6 * 11  # the README config: pop_size 6, max_iter 10; one search for all seeds


def step_times(units, batch, steps):
    """Median CPU seconds of the forward, backward and Adam parts over ``steps`` steps."""
    spec = nn.DualBiGRUSpec(WINDOW_LENGTH, (units,) * 4, (0.02,) * 4)
    spec = replace(spec, params=nn.init_params(spec, derive_rng(0, "init")))
    rng = np.random.default_rng(0)
    windows, targets = rng.normal(size=(batch, WINDOW_LENGTH)), rng.normal(size=batch)
    grads = spec.params.zeros_like()
    state = nn.AdamState.zeros_like(spec.params)
    config = nn.TrainingConfig(1, 0.01, 1, batch_size=batch)
    dropout_rng = derive_rng(0, "dropout")
    parts = []
    for _ in range(steps + 1):  # the first step warms up and is not counted
        t0 = time.process_time()
        preds, cache = nn.network_forward(spec, windows, "train", dropout_rng)
        t1 = time.process_time()
        nn.network_backward(spec, nn.mse_loss(preds, targets)[1], cache, grads)
        t2 = time.process_time()
        nn.adam_step(spec.params, grads, state, config, 0)
        parts.append((t1 - t0, t2 - t1, time.process_time() - t2))
    return [statistics.median(part) for part in zip(*parts[1:])]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--units", type=int, nargs="+", default=[25, 200])
    ap.add_argument("--batches", type=int, nargs="+", default=[1, 20])
    ap.add_argument("--steps", type=int, default=20, help="timed steps per row")
    args = ap.parse_args()

    getter = blas.openblas_threads()
    threads = getter[0]() if getter else "left as found (no OpenBLAS setter)"
    print(f"BLAS threads: {threads}; window length {WINDOW_LENGTH}, {WINDOWS} windows; "
          f"medians of {args.steps} steps; {CANDIDATES} candidates per protocol")
    low, high = EPOCHS_RANGE
    print(f"{'units':>5} {'batch':>5} {'fwd_ms':>7} {'bwd_ms':>7} {'adam_ms':>7} {'step_ms':>7} "
          f"{f'cand{low}_s':>10} {f'cand{high}_s':>10} {f'proto{low}_h':>11} {f'proto{high}_h':>11}")
    for units in args.units:
        for batch in args.batches:
            parts = step_times(units, batch, args.steps)
            step = sum(parts)
            cand = [step * epochs * math.ceil(WINDOWS / batch) for epochs in (low, high)]
            print(f"{units:5d} {batch:5d} " + " ".join(f"{1e3 * t:7.2f}" for t in (*parts, step))
                  + "".join(f" {s:10.1f}" for s in cand)
                  + "".join(f" {s * CANDIDATES / 3600:11.2f}" for s in cand))


if __name__ == "__main__":
    with blas.one_thread():
        main()
