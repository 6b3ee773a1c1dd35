#!/usr/bin/env python3
"""Fleet study: train on one vehicle's monthly SOH, predict the rest.

Writes a synthetic multi-vehicle charging dataset, ingests it back through
the coulomb-counting path, and prints per-vehicle errors for two
prediction starting months.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from sohpred import ingest, pipeline
from sohpred.neuralnet import DualBiGRUSpec, TrainingConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vehicles", type=int, default=20)
    ap.add_argument("--months", type=int, default=29)
    ap.add_argument("--train-vehicle", default="V01")
    ap.add_argument("--starts", type=int, nargs="+", default=[2, 6])
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--seed", type=int, default=10)
    ap.add_argument("--keep", help="write the dataset here instead of a temp dir")
    args = ap.parse_args()

    out_dir = Path(args.keep) if args.keep else Path(tempfile.mkdtemp(prefix="fleet-"))
    params = pipeline.FleetSynthesisParams(
        n_vehicles=args.vehicles, n_months=args.months, events_per_month=6
    )
    paths = pipeline.synthesize_fleet(params, seed=args.seed, out_dir=out_dir)
    print(f"dataset: {out_dir} ({len(paths)} vehicles)")

    vehicle_soh = {}
    for path in paths:
        vid = path.stem.removeprefix("fleet_")
        segments = ingest.parse_fleet_file(path, source_id=vid)
        records, _ = ingest.monthly_aggregate(segments)
        vehicle_soh[vid] = ingest.compute_soh(
            [r.median_capacity for r in records], "max", [r.month for r in records]
        )

    config = pipeline.ExperimentConfig(
        split=pipeline.SplitSpec.index(2),
        network=DualBiGRUSpec(5, (16,) * 4, (0.02,) * 4),
        training=TrainingConfig(args.epochs, 0.01, int(0.7 * args.epochs), 0.01, batch_size=8),
        seeds=(0,),
    )
    # the predictors do not depend on the starting month: fit them once
    predictors = pipeline.fit_fleet_predictors(config, vehicle_soh[args.train_vehicle])
    for start in args.starts:
        results = pipeline.run_fleet(
            args.train_vehicle, vehicle_soh, pipeline.SplitSpec.index(start), config, predictors
        )
        rmses = [report.rmse for _, report in results]
        print(f"\nprediction starting month {start}:")
        print(f"{'vehicle':>8} {'rmse':>10} {'mae':>10} {'mape %':>8}")
        for vid, report in results:
            print(f"{vid:>8} {report.rmse:10.5f} {report.mae:10.5f} {report.mape:8.3f}")
        print(f"    mean rmse {np.mean(rmses):.5f}, worst {np.max(rmses):.5f}")


if __name__ == "__main__":
    main()
