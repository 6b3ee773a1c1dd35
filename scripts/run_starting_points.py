#!/usr/bin/env python3
"""Prediction-starting-point study on a synthetic degradation family.

Trains the same network at several starting points and prints how the
test error shrinks as the training share grows.
"""

import argparse

import numpy as np

from sohpred import pipeline
from sohpred.hiselect import HISeries
from sohpred.ingest import SOHSeries
from sohpred.neuralnet import DualBiGRUSpec, TrainingConfig
from sohpred.seeding import derive_rng


def make_series(n, fade, shape, noise, seed):
    rng = derive_rng(seed, "gen")
    x = np.linspace(0.0, 1.0, n)
    soh = 1.0 - fade * x**shape
    hi = soh + rng.normal(0.0, noise, n)
    return HISeries("MF", hi), SOHSeries(tuple(range(n)), soh)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--cycles", type=int, default=140)
    ap.add_argument("--noise", type=float, default=0.005)
    ap.add_argument("--units", type=int, default=16)
    ap.add_argument("--epochs", type=int, default=200)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--fractions", type=float, nargs="+", default=[0.05, 0.15, 0.25])
    ap.add_argument("--seed", type=int, default=42, help="generator seed")
    args = ap.parse_args()

    hi, soh = make_series(args.cycles, 0.14, 1.2, args.noise, args.seed)
    network = DualBiGRUSpec(5, (args.units,) * 4, (0.02,) * 4)
    training = TrainingConfig(
        args.epochs, 0.01, int(0.7 * args.epochs), 0.01, batch_size=8
    )

    print(f"{'start':>6} {'rmse':>10} {'mae':>10} {'mape %':>8}  per-seed rmse")
    for frac in args.fractions:
        config = pipeline.ExperimentConfig(
            split=pipeline.SplitSpec.fraction(frac),
            network=network,
            training=training,
            seeds=tuple(range(args.seeds)),
        )
        report = pipeline.train_and_predict(config, hi, soh).report
        per_seed = " ".join(f"{r:.4f}" for r in report.per_seed_rmse)
        print(
            f"{frac:6.0%} {report.rmse:10.5f} {report.mae:10.5f} "
            f"{report.mape:8.3f}  [{per_seed}]"
        )


if __name__ == "__main__":
    main()
