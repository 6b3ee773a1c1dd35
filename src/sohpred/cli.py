"""Command-line entry point wiring the pipeline into reproducible runs.

Every run resolves a manifest (subcommand, config, dataset hashes, seeds,
tool version); outputs land in one directory per manifest hash unless
--out points somewhere explicit, and every output file carries the
manifest hash on its first line.  All randomness derives from the single
manifest seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__, icfeatures, ingest, pipeline, ssa
from .hiselect import HI_NAMES, HISeries, rank_his, select_hi
from .neuralnet import DivergenceError, DualBiGRUSpec, TrainingConfig

OUT_ROOT_ENV = "SOHPRED_OUT"

SEARCH_BOUNDS_HELP = (
    "hyperparameter domain: GRU units {u} per layer, max epochs {e}, "
    "learning rate {lr}, batch size {b}, dropout {d} per layer; "
    "learning-rate drop period = 0.7 * max epochs, drop factor 0.01"
).format(
    u=list(ssa.UNIT_RANGE),
    e=list(ssa.EPOCHS_RANGE),
    lr=list(ssa.LEARNING_RATE_RANGE),
    b=list(ssa.BATCH_RANGE),
    d=list(ssa.DROPOUT_RANGE),
)


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a mapping of sections")
    return cfg


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(subcommand: str, config: dict, datasets: list[Path], seeds: list[int]) -> dict:
    # datasets are keyed by basename so the hash tracks content, not location
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "datasets": {p.name: _file_sha256(p) for p in sorted(datasets)},
        "version": __version__,
        "seeds": seeds,
    }
    blob = json.dumps(manifest, sort_keys=True, default=str)
    manifest["hash"] = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return manifest


def _resolve_out_dir(args, manifest: dict) -> Path:
    if args.out is not None:
        out = Path(args.out)
    else:
        root = Path(os.environ.get(OUT_ROOT_ENV, "runs"))
        out = root / f"{manifest['subcommand']}-{manifest['hash']}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out_dir: Path, manifest: dict) -> None:
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2, default=str) + "\n"
    )


def _write_table(path: Path, manifest_hash: str, header: list[str], rows: list[list]) -> None:
    lines = [f"# manifest {manifest_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def read_hi_table(path: Path | str) -> tuple[str, np.ndarray, HISeries, ingest.SOHSeries]:
    """Read an indicator table written by the extract step."""
    path = Path(path)
    name = "MF"
    indices, his, sohs = [], [], []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line or line.startswith("# "):
            continue
        if line.startswith("index,"):
            name = line.split(",")[1]
            continue
        fields = line.split(",")
        try:
            if len(fields) != 3:
                raise ValueError(f"expected 3 fields (index,{name},soh), got {len(fields)}")
            indices.append(int(fields[0]))
            his.append(float(fields[1]))
            sohs.append(float(fields[2]))
        except ValueError as exc:
            raise ConfigError(f"{path}, line {lineno}: {exc}") from None
    if not indices:
        raise ConfigError(f"{path}: empty indicator table")
    idx = np.array(indices)
    return (
        name,
        idx,
        HISeries(name=name, values=np.array(his)),
        ingest.SOHSeries(index=tuple(indices), values=np.array(sohs)),
    )


# ---------------------------------------------------------------------------
# config resolution


def _cycle_schema(cfg: dict) -> ingest.CycleSchema:
    sch = cfg.get("dataset", {}).get("schema", {})
    kwargs = {k: sch[k] for k in ("cycle", "time", "voltage", "charge", "current", "capacity") if k in sch}
    if "voltage_window" in sch:
        kwargs["voltage_window"] = tuple(sch["voltage_window"])
    return ingest.CycleSchema(**kwargs)


def _fleet_schema(cfg: dict) -> ingest.FleetSchema:
    sch = cfg.get("dataset", {}).get("schema", {})
    kwargs = {k: sch[k] for k in ("timestamp", "current", "voltage", "soc", "temperature") if k in sch}
    if "soc_in_percent" in sch:
        kwargs["soc_in_percent"] = bool(sch["soc_in_percent"])
    if "gap_threshold_s" in sch:
        kwargs["gap_threshold_s"] = float(sch["gap_threshold_s"])
    return ingest.FleetSchema(**kwargs)


def _search_space(cfg: dict) -> ssa.SearchSpace:
    ranges = cfg.get("ssa", {}).get("ranges", {})
    return ssa.encode_hyperparameters(
        unit_range=tuple(ranges.get("units", ssa.UNIT_RANGE)),
        epochs_range=tuple(ranges.get("epochs", ssa.EPOCHS_RANGE)),
        lr_range=tuple(ranges.get("learning_rate", ssa.LEARNING_RATE_RANGE)),
        batch_range=tuple(ranges.get("batch", ssa.BATCH_RANGE)),
        dropout_range=tuple(ranges.get("dropout", ssa.DROPOUT_RANGE)),
    )


def _split_spec(cfg: dict) -> pipeline.SplitSpec:
    sp = cfg.get("experiment", {}).get("split", {"mode": "fraction", "start_fraction": 0.25})
    if sp.get("mode") == "index":
        return pipeline.SplitSpec.index(int(sp["start_index"]))
    return pipeline.SplitSpec.fraction(float(sp.get("start_fraction", 0.25)))


def _validate_explicit_bounds(
    units: tuple[int, ...],
    dropouts: tuple[float, ...],
    learning_rate: float,
    max_epochs: int,
    batch_size: int,
) -> None:
    """Check explicit hyperparameters against the documented domain.

    Capacity knobs (units, epochs, batch) may sit below the search domain
    for desk-scale runs, so only their upper bounds apply; dropout and
    learning rate are checked on both sides.  Every violation is reported.
    """
    problems: list[str] = []
    for i, u in enumerate(units, start=1):
        if u > ssa.UNIT_RANGE[1]:
            problems.append(f"gru_units[{i}] = {u} above {ssa.UNIT_RANGE[1]}")
    if max_epochs > ssa.EPOCHS_RANGE[1]:
        problems.append(f"max_epochs = {max_epochs} above {ssa.EPOCHS_RANGE[1]}")
    if batch_size > ssa.BATCH_RANGE[1]:
        problems.append(f"batch_size = {batch_size} above {ssa.BATCH_RANGE[1]}")
    lr_lo, lr_hi = ssa.LEARNING_RATE_RANGE
    if not lr_lo <= learning_rate <= lr_hi:
        problems.append(f"learning_rate = {learning_rate} outside [{lr_lo}, {lr_hi}]")
    d_lo, d_hi = ssa.DROPOUT_RANGE
    for i, rate in enumerate(dropouts, start=1):
        if not d_lo <= rate <= d_hi:
            problems.append(f"dropout_rates[{i}] = {rate} outside [{d_lo}, {d_hi}]")
    if problems:
        raise ConfigError("hyperparameters violate bounds: " + "; ".join(problems))


def _experiment_config(cfg: dict, args, network_mode: str) -> pipeline.ExperimentConfig:
    exp = cfg.get("experiment", {})
    seeds = tuple(exp.get("seeds", [args.seed]))
    window = int(exp.get("window_length", pipeline.DEFAULT_WINDOW_LENGTH))
    space = _search_space(cfg)

    network: DualBiGRUSpec | str
    training = None
    if network_mode == "ssa-tuned":
        network = "ssa-tuned"
    elif exp.get("network") == "ssa-tuned":
        raise ConfigError("network: ssa-tuned requires the hpo subcommand")
    elif "network" in exp:
        net = exp["network"]
        units = tuple(int(u) for u in net["gru_units"])
        dropouts = tuple(float(d) for d in net["dropout_rates"])
        tr = exp.get("training", {})
        max_epochs = int(tr.get("max_epochs", pipeline.BASELINE_EPOCHS))
        learning_rate = float(tr.get("learning_rate", pipeline.BASELINE_LEARNING_RATE))
        batch_size = int(tr.get("batch_size", pipeline.BASELINE_BATCH_SIZE))
        if net.get("candidate_form", "reset_gated") != "reset_gated":
            raise ConfigError(
                f"candidate_form {net['candidate_form']!r} is not supported (only reset_gated)"
            )
        _validate_explicit_bounds(units, dropouts, learning_rate, max_epochs, batch_size)
        network = DualBiGRUSpec(window_length=window, gru_units=units, dropout_rates=dropouts)
        training = TrainingConfig(
            max_epochs=max_epochs,
            learning_rate=learning_rate,
            lr_drop_period=int(tr.get("lr_drop_period", round(ssa.LR_DROP_RATIO * max_epochs))),
            lr_drop_factor=float(tr.get("lr_drop_factor", ssa.LR_DROP_FACTOR)),
            batch_size=batch_size,
            seed=seeds[0],
        )
    else:
        network = "baseline"

    ssa_cfg = None
    if network_mode == "ssa-tuned":
        s = cfg.get("ssa", {})
        ssa_cfg = ssa.SSAConfig(
            pop_size=int(s.get("pop_size", 6)),
            max_iter=int(s.get("max_iter", 10)),
            seed=args.seed,
        )
    return pipeline.ExperimentConfig(
        split=_split_spec(cfg),
        network=network,
        training=training,
        denoise=bool(exp.get("denoise", True)),
        denoise_rank=exp.get("denoise_rank", 2),
        scale_band=float(exp.get("scale_band", 0.25)),
        seeds=seeds,
        window_length=window,
        ssa=ssa_cfg,
        search_space=space,
        jobs=getattr(args, "jobs", 1),  # train never searches, so it has no --jobs
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    cfg = _load_config(args.config)
    sy = cfg.get("synth", {})
    kind = args.kind or sy.get("kind", "cycles")
    if kind == "cycles":
        keys = (
            "n_cycles base_capacity_ah total_fade fade_shape capacity_noise "
            "voltage_noise sample_period_s charge_rate second_step_weight"
        ).split()
        params = pipeline.CycleSynthesisParams(**{k: sy[k] for k in keys if k in sy})
    elif kind == "fleet":
        keys = (
            "n_vehicles n_months events_per_month pack_capacity_ah monthly_fade "
            "quadratic_fade vehicle_spread event_noise rebound_probability "
            "rebound_size base_current_a sample_period_s"
        ).split()
        params = pipeline.FleetSynthesisParams(**{k: sy[k] for k in keys if k in sy})
    else:
        raise ConfigError(f"synth kind must be 'cycles' or 'fleet', got {kind!r}")

    manifest = build_manifest("synth", cfg, [], [args.seed])
    out_dir = _resolve_out_dir(args, manifest)
    paths = pipeline.synthesize_dataset(kind, params, args.seed, out_dir)
    _write_manifest(out_dir, manifest)
    for p in paths:
        print(p)
    return 0


def _extract_artifacts(cfg: dict, dataset: Path):
    """Shared extract stage: parse cycles, build indicators, rank them."""
    ex = cfg.get("extract", {})
    records, dropped = ingest.parse_cycle_file(dataset, _cycle_schema(cfg))
    soh = ingest.compute_soh(
        [r.measured_capacity for r in records],
        denominator=ex.get("soh_denominator", "first"),
        index=[r.cycle_index for r in records],
    )
    curves = [
        icfeatures.savitzky_golay(
            icfeatures.compute_ic_curve(r, float(ex.get("bin_width", icfeatures.DEFAULT_BIN_WIDTH_V))),
            int(ex.get("sg_window", icfeatures.DEFAULT_SG_WINDOW)),
            int(ex.get("sg_order", icfeatures.DEFAULT_SG_ORDER)),
        )
        for r in records
    ]
    halfwidths = tuple(ex.get("area_halfwidths", icfeatures.DEFAULT_AREA_HALFWIDTHS_V))
    sweep = icfeatures.sweep_area_boundaries(curves, soh, halfwidths)
    rows = [icfeatures.dimensionless_features(c, area_halfwidth=sweep.halfwidth) for c in curves]

    candidates = [
        HISeries("MF", np.array([r.mf for r in rows])),
        HISeries("PF", np.array([r.pf for r in rows])),
        HISeries("CF", np.array([r.cf for r in rows])),
        HISeries("WF", np.array([r.wf for r in rows])),
        HISeries("Kur", np.array([r.kur for r in rows])),
        sweep.series,
        HISeries("Peak", np.array([r.peak for r in rows])),
    ]
    report = rank_his(
        candidates,
        soh,
        denoise_rank=ex.get("denoise", 0.95),
        ranked_correlation=bool(ex.get("ranked_correlation", False)),
    )
    hi_name = ex.get("hi", "auto")
    if hi_name == "auto":
        chosen = select_hi(report, candidates, top_k=1)[0]
    else:
        if hi_name not in HI_NAMES:
            raise ConfigError(f"extract.hi must be 'auto' or one of {HI_NAMES}")
        chosen = next(c for c in candidates if c.name == hi_name)
    return records, dropped, soh, curves, sweep, rows, candidates, report, chosen


def cmd_extract(args) -> int:
    cfg = _load_config(args.config)
    dataset = Path(args.dataset or cfg.get("dataset", {}).get("path", ""))
    if not dataset.is_file():
        raise ConfigError(f"dataset file not found: {dataset}")
    manifest = build_manifest("extract", cfg, [dataset], [args.seed])
    out_dir = _resolve_out_dir(args, manifest)
    h = manifest["hash"]

    records, dropped, soh, curves, sweep, rows, candidates, report, chosen = (
        _extract_artifacts(cfg, dataset)
    )

    _write_table(
        out_dir / "features.csv",
        h,
        ["cycle", "cf", "pf", "mf", "wf", "kur", "area", "peak"],
        [[r.cycle_index, r.cf, r.pf, r.mf, r.wf, r.kur, r.area, r.peak] for r in rows],
    )
    ranking_pos = {name: i for i, name in enumerate(report.ranking)}
    _write_table(
        out_dir / "correlation.csv",
        h,
        ["hi", "coefficient", "rank"],
        [[name, coeff, ranking_pos[name] + 1] for name, coeff in report.entries],
    )
    _write_table(
        out_dir / "boundaries.csv",
        h,
        ["halfwidth", "peak_voltage", "peak_height", "lower_bound", "upper_bound"],
        [[
            sweep.halfwidth,
            sweep.reference_peak.peak_voltage,
            sweep.reference_peak.peak_height,
            sweep.reference_peak.lower_bound,
            sweep.reference_peak.upper_bound,
        ]],
    )
    _write_table(
        out_dir / "capacity.csv",
        h,
        ["cycle", "capacity_ah", "soh"],
        [[r.cycle_index, r.measured_capacity, s] for r, s in zip(records, soh.values)],
    )
    hi_rows = [[i, v, s] for i, v, s in zip(soh.index, chosen.values, soh.values)]
    _write_table(out_dir / f"hi_{chosen.name}.csv", h, ["index", chosen.name, "soh"], hi_rows)
    # stable alias so downstream steps can chain without knowing the winner
    _write_table(out_dir / "hi_top.csv", h, ["index", chosen.name, "soh"], hi_rows)
    _write_manifest(out_dir, manifest)
    print(f"{out_dir} (dropped {dropped} rows; chose {chosen.name})")
    return 0


def _load_hi_inputs(args, cfg: dict) -> tuple[Path, HISeries, ingest.SOHSeries]:
    table = args.hi_table or cfg.get("dataset", {}).get("hi_table")
    if table is None:
        raise ConfigError("an indicator table is required (--hi-table or dataset.hi_table)")
    table = Path(table)
    if not table.is_file():
        raise ConfigError(f"indicator table not found: {table}")
    _, _, hi, soh = read_hi_table(table)
    return table, hi, soh


def _write_report(out_dir: Path, h: str, name: str, report: pipeline.PredictionReport) -> None:
    _write_table(
        out_dir / name,
        h,
        ["index", "true_soh", "predicted_soh"],
        [[int(i), float(t), float(p)]
         for i, t, p in zip(report.indices, report.true_soh, report.predicted_soh)],
    )


def _write_summary(out_dir: Path, h: str, rows: list[list]) -> None:
    _write_table(
        out_dir / "summary.csv",
        h,
        ["fingerprint", "label", "split", "rmse", "mae", "mape_pct"],
        rows,
    )


def _run_experiment(args, network_mode: str, emit_search: bool) -> int:
    cfg = _load_config(args.config)
    table, hi, soh = _load_hi_inputs(args, cfg)
    config = _experiment_config(cfg, args, network_mode)
    manifest = build_manifest(
        "hpo" if network_mode == "ssa-tuned" else "train", cfg, [table], list(config.seeds)
    )
    out_dir = _resolve_out_dir(args, manifest)
    h = manifest["hash"]

    results = [pipeline.train_and_predict(config, hi, soh, seed) for seed in config.seeds]
    aggregate = pipeline.aggregate_reports([r.report for r in results])

    _write_report(out_dir, h, "report.csv", aggregate)
    _write_summary(
        out_dir,
        h,
        [[aggregate.fingerprint, hi.name, config.split.label(),
          aggregate.rmse, aggregate.mae, aggregate.mape]],
    )
    first = results[0]
    first.predictor.save(out_dir)  # the first seed's predictor
    if emit_search:
        _write_table(
            out_dir / "ssa_history.csv",
            h,
            ["iteration", "best_fitness", "evaluations", "failures"]
            + [f"pos{i}" for i in range(len(first.search_history[0].best_position))]
            + ["repeats"],
            [[r.iteration, r.best_fitness, r.evaluations, r.failures,
              *[float(v) for v in r.best_position], r.repeats]
             for r in first.search_history],
        )
        model = first.predictor.model
        best = {
            "experiment": {
                "window_length": model.window_length,
                "network": {
                    "gru_units": [int(u) for u in model.gru_units],
                    "dropout_rates": [float(d) for d in model.dropout_rates],
                },
                "training": {
                    "max_epochs": first.training.max_epochs,
                    "learning_rate": first.training.learning_rate,
                    "lr_drop_period": first.training.lr_drop_period,
                    "lr_drop_factor": first.training.lr_drop_factor,
                    "batch_size": first.training.batch_size,
                },
            }
        }
        (out_dir / "best_config.yaml").write_text(yaml.safe_dump(best, sort_keys=True))
    _write_manifest(out_dir, manifest)
    print(f"{out_dir} rmse={aggregate.rmse!r}")
    return 0


def cmd_train(args) -> int:
    return _run_experiment(args, network_mode="explicit", emit_search=False)


def cmd_hpo(args) -> int:
    return _run_experiment(args, network_mode="ssa-tuned", emit_search=True)


def cmd_predict(args) -> int:
    cfg = _load_config(args.config)
    model_path = Path(args.model)
    if not model_path.is_file():
        raise ConfigError(f"model file not found: {model_path}")
    table, hi, soh = _load_hi_inputs(args, cfg)
    scaler_path = Path(args.scaler) if args.scaler else model_path.with_name("scaler.yaml")
    if not scaler_path.is_file():
        raise ConfigError(f"scaler file not found: {scaler_path}")
    # conditioning comes from the scaler file, never from --config
    predictor = pipeline.Predictor.load(model_path, scaler_path)

    manifest = build_manifest("predict", cfg, [table, model_path], [args.seed])
    out_dir = _resolve_out_dir(args, manifest)
    h = manifest["hash"]
    report = predictor.report("-", hi.values, soh.values)
    _write_report(out_dir, h, "predictions.csv", report)
    _write_summary(out_dir, h, [["-", hi.name, "full", report.rmse, report.mae, report.mape]])
    _write_manifest(out_dir, manifest)
    print(f"{out_dir} rmse={report.rmse!r}")
    return 0


def cmd_fleet(args) -> int:
    cfg = _load_config(args.config)
    data_dir = Path(args.dataset or cfg.get("dataset", {}).get("path", ""))
    files = sorted(data_dir.glob("fleet_*.csv"))
    if not files:
        raise ConfigError(f"no fleet_*.csv files under {data_dir}")
    fleet_cfg = cfg.get("fleet", {})
    stat = fleet_cfg.get("stat", "median")
    if stat not in ("median", "mean"):
        raise ConfigError(f"fleet.stat must be 'median' or 'mean', got {stat!r}")
    schema = _fleet_schema(cfg)

    vehicle_soh: dict[str, ingest.SOHSeries] = {}
    monthly_rows = []
    for path in files:
        vid = path.stem.removeprefix("fleet_")
        segments = ingest.parse_fleet_file(path, schema, source_id=vid)
        records, _ = ingest.monthly_aggregate(segments)
        caps = [r.median_capacity if stat == "median" else r.mean_capacity for r in records]
        vehicle_soh[vid] = ingest.compute_soh(
            caps, denominator="max", index=[r.month for r in records]
        )
        for r in records:
            monthly_rows.append(
                [vid, r.month, len(r.capacities), r.median_capacity, r.mean_capacity]
            )

    train_vehicle = fleet_cfg.get("train_vehicle", sorted(vehicle_soh)[0])
    start = pipeline.SplitSpec.index(int(fleet_cfg.get("start_index", 2)))
    config = _experiment_config(cfg, args, network_mode=(
        "ssa-tuned" if cfg.get("experiment", {}).get("network") == "ssa-tuned" else "explicit"
    ))

    manifest = build_manifest("fleet", cfg, files, list(config.seeds))
    out_dir = _resolve_out_dir(args, manifest)
    h = manifest["hash"]

    results = pipeline.run_fleet(train_vehicle, vehicle_soh, start, config)
    _write_table(
        out_dir / "monthly.csv",
        h,
        ["vehicle", "month", "events", "median_capacity_ah", "mean_capacity_ah"],
        monthly_rows,
    )
    summary_rows = []
    for vid, report in results:
        _write_report(out_dir, h, f"fleet_{vid}_report.csv", report)
        summary_rows.append([report.fingerprint, vid, start.label(), report.rmse, report.mae, report.mape])
    _write_summary(out_dir, h, summary_rows)
    _write_manifest(out_dir, manifest)
    mean_rmse = float(np.mean([r.rmse for _, r in results]))
    print(f"{out_dir} vehicles={len(results)} mean_rmse={mean_rmse!r}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sohpred",
        description="Battery SOH prediction from charging data.",
        epilog=SEARCH_BOUNDS_HELP,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML run configuration")
        p.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
        p.add_argument("--out", help="output directory (default: runs/<cmd>-<manifest hash>)")

    def jobs(p):
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the search's fitness evaluations (default 1)")

    p = sub.add_parser("synth", help="write a synthetic dataset")
    common(p)
    p.add_argument("--kind", choices=["cycles", "fleet"], help="dataset kind")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="indicators + correlation ranking from a cycle file")
    common(p)
    p.add_argument("--dataset", help="cycle data file (overrides config)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train with explicit hyperparameters and evaluate")
    common(p)
    p.add_argument("--hi-table", help="indicator table from the extract step")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("hpo", help="sparrow-search tuning, then final training", epilog=SEARCH_BOUNDS_HELP)
    common(p)
    p.add_argument("--hi-table", help="indicator table from the extract step")
    jobs(p)
    p.set_defaults(func=cmd_hpo)

    p = sub.add_parser("predict", help="load a model and predict an indicator table")
    common(p)
    p.add_argument("--model", required=True, help="model file from train/hpo")
    p.add_argument("--scaler", help="scaler file (default: next to the model)")
    p.add_argument("--hi-table", help="indicator table to predict")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("fleet", help="train on one vehicle, predict the rest")
    common(p)
    p.add_argument("--dataset", help="directory of fleet_*.csv files")
    jobs(p)
    p.set_defaults(func=cmd_fleet)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError, ingest.ParseError, ValueError, FileNotFoundError, DivergenceError,
        ssa.WorkerLostError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
