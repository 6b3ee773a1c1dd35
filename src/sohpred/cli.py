"""Command-line entry point wiring the pipeline into reproducible runs.

Every run resolves a manifest (subcommand, config, dataset hashes, seeds,
tool version); outputs land in one directory per manifest hash unless
--out points somewhere explicit, and every output file carries the
manifest hash on its first line.  All randomness derives from the single
manifest seed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import json
import math
import os
import re
import sys
import typing
from pathlib import Path
from typing import Literal, NamedTuple

import numpy as np
import yaml

from . import __version__, blas, hiselect, icfeatures, ingest, pipeline, ssa
from .hiselect import HI_NAMES, HISeries, rank_his, select_hi
from .neuralnet import DivergenceError, DualBiGRUSpec, TrainingConfig

OUT_ROOT_ENV = "SOHPRED_OUT"

SEARCH_BOUNDS_HELP = (
    f"hyperparameter domain: GRU units {list(ssa.UNIT_RANGE)} per layer, max epochs "
    f"{list(ssa.EPOCHS_RANGE)}, learning rate {list(ssa.LEARNING_RATE_RANGE)}, batch size "
    f"{list(ssa.BATCH_RANGE)}, dropout {list(ssa.DROPOUT_RANGE)} per layer; learning-rate "
    f"drop period = {ssa.LR_DROP_RATIO} * max epochs, drop factor {TrainingConfig.lr_drop_factor}"
)


class ConfigError(ValueError):
    pass


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def build_manifest(
    subcommand: str,
    config: dict,
    datasets: list[Path],
    seeds: list[int],
    digests: list[str] | None = None,
) -> dict:
    """The run's manifest; ``digests`` are the datasets' sha256 when already known."""
    if digests is None:
        digests = [_file_sha256(p) for p in datasets]
    # datasets are keyed by basename so the hash tracks content, not location
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "datasets": {p.name: d for p, d in sorted(zip(datasets, digests))},
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


def read_hi_table(path: Path | str) -> tuple[HISeries, ingest.SOHSeries]:
    """Read an indicator table written by the extract step.

    The header must name a known indicator, and each row is checked as the
    extract step writes it: finite values, an SOH in (0, 1.05] and an index
    above the row before.
    """
    path = Path(path)
    name = "MF"
    indices, his, sohs = [], [], []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line or line.startswith("# "):
            continue
        fields = line.split(",")
        try:
            if line.startswith("index,"):
                name = fields[1]
                if name not in HI_NAMES:
                    raise ValueError(f"unknown HI name {name!r}, expected one of {HI_NAMES}")
                continue
            if len(fields) != 3:
                raise ValueError(f"expected 3 fields (index,{name},soh), got {len(fields)}")
            index, hi, soh = int(fields[0]), float(fields[1]), float(fields[2])
            if not math.isfinite(hi):
                raise ValueError(f"non-finite {name} value {fields[1]!r}")
            if not math.isfinite(soh) or not 0.0 < soh <= 1.05:
                raise ValueError(f"SOH {fields[2]!r} outside (0, 1.05]")
            if indices and index <= indices[-1]:
                raise ValueError(f"index {index} does not follow {indices[-1]}: indices must increase")
            indices.append(index)
            his.append(hi)
            sohs.append(soh)
        except ValueError as exc:
            raise ConfigError(f"{path}, line {lineno}: {exc}") from None
    if not indices:
        raise ConfigError(f"{path}: empty indicator table")
    return (
        HISeries(name=name, values=np.array(his)),
        ingest.SOHSeries(index=tuple(indices), values=np.array(sohs)),
    )


# ---------------------------------------------------------------------------
# config resolution


def _dataclass_keys(section: str, *classes, leave_out: tuple[str, ...] = ()) -> dict:
    """The fields of ``classes`` as keys without a default, so each class keeps its own."""
    keys: dict = {}
    for cls in classes:
        for name, hint in typing.get_type_hints(cls).items():
            path = f"{section}.{name}"
            if name not in leave_out:
                keys[path] = keys[path] | hint if path in keys else hint
    return keys


def _param_default(fn, name: str):
    return inspect.signature(fn).parameters[name].default


# Every key a config may set, by its dotted path: a type hint and a default,
# or a bare type hint for a key that stays unset unless the file sets it.  A
# path with keys under it is a section, a mapping that defaults to {}.  A
# float also reads an int or a string that float() reads (PyYAML loads 1e-3
# as a string); int | float keeps what the file wrote; tuple[T, T] is a list
# of two, tuple[T, ...] a list of any length.
CONFIG_SCHEMA: dict = {
    "synth.kind": (Literal["cycles", "fleet"], "cycles"),
    **_dataclass_keys("synth", pipeline.CycleSynthesisParams, pipeline.FleetSynthesisParams,
                      leave_out=("step_voltages", "step_widths")),
    "dataset.path": str,  # or --dataset
    "dataset.hi_table": str,  # or --hi-table
    **_dataclass_keys("dataset.schema", ingest.CycleSchema, ingest.FleetSchema),
    "extract.soh_denominator": (
        Literal["first", "max"] | float, _param_default(ingest.compute_soh, "denominator")
    ),
    "extract.bin_width": (float, icfeatures.DEFAULT_BIN_WIDTH_V),
    "extract.sg_window": (int, icfeatures.DEFAULT_SG_WINDOW),
    "extract.sg_order": (int, icfeatures.DEFAULT_SG_ORDER),
    "extract.area_halfwidths": (tuple[float, ...], icfeatures.DEFAULT_AREA_HALFWIDTHS_V),
    "extract.denoise": (int | float, hiselect.DEFAULT_ENERGY_THRESHOLD),
    "extract.ranked_correlation": (bool, _param_default(rank_his, "ranked_correlation")),
    "extract.hi": (Literal[("auto", *HI_NAMES)], "auto"),
    "experiment.split.mode": (Literal["fraction", "index"], "fraction"),
    "experiment.split.start_fraction": (float, 0.25),
    "experiment.split.start_index": int,
    "experiment.window_length": (int, pipeline.DEFAULT_WINDOW_LENGTH),
    "experiment.seeds": tuple[int, ...],  # or --seed
    "experiment.denoise": (bool, pipeline.ExperimentConfig.denoise),
    "experiment.denoise_rank": (int | float, pipeline.ExperimentConfig.denoise_rank),
    "experiment.scale_band": (float, pipeline.ExperimentConfig.scale_band),
    # the network and training defaults are the paper's baseline network
    "experiment.network": dict | Literal["ssa-tuned"],  # or the baseline network
    "experiment.network.gru_units": (tuple[int, int, int, int], (128,) * 4),
    "experiment.network.dropout_rates": (tuple[float, float, float, float], (0.02,) * 4),
    "experiment.network.candidate_form": (str, "reset_gated"),
    "experiment.training.max_epochs": (int, 500),
    "experiment.training.learning_rate": (float, 0.01),
    "experiment.training.lr_drop_period": int,  # or ssa.LR_DROP_RATIO * max_epochs
    "experiment.training.lr_drop_factor": (float, TrainingConfig.lr_drop_factor),
    "experiment.training.batch_size": (int, TrainingConfig.batch_size),
    "ssa.pop_size": (int, ssa.SSAConfig.pop_size),
    "ssa.max_iter": (int, ssa.SSAConfig.max_iter),
    "ssa.ranges.units": (tuple[int, int], ssa.UNIT_RANGE),
    "ssa.ranges.epochs": (tuple[int, int], ssa.EPOCHS_RANGE),
    "ssa.ranges.learning_rate": (tuple[int | float, int | float], ssa.LEARNING_RATE_RANGE),
    "ssa.ranges.batch": (tuple[int, int], ssa.BATCH_RANGE),
    "ssa.ranges.dropout": (tuple[int | float, int | float], ssa.DROPOUT_RANGE),
    "fleet.stat": (Literal["median", "mean"], "median"),
    "fleet.train_vehicle": str,  # or the first vehicle
    "fleet.start_index": (int, 2),
}
_SECTIONS = {path.rpartition(".")[0] for path in CONFIG_SCHEMA} - {"experiment.network"}


def _typed(value, hint):
    """``value`` read as ``hint``; raises TypeError naming the hint."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        if isinstance(value, list) and (args[-1] is ... or len(value) == len(args)):
            return tuple(_typed(v, args[0]) for v in value)
    elif origin is Literal:
        if value in args:
            return value
    elif args:  # a union: the first arm that reads it
        for arm in args:
            try:
                return _typed(value, arm)
            except TypeError:
                pass
    elif isinstance(value, bool) != (hint is bool):
        pass  # bool is not an int
    elif hint is float and isinstance(value, (int, float, str)):
        try:
            return float(value)
        except ValueError:
            pass
    elif isinstance(value, hint):
        return value
    expected = re.sub(r"<class '(\w+)'>|typing\.", r"\1", str(hint))
    raise TypeError(f"expected {expected}, got {value!r}")


def _checked(mapping: dict, source: str, section: str = "") -> dict:
    """``mapping`` checked against CONFIG_SCHEMA, with the defaults of the keys it leaves out."""
    out = {}
    for key, value in mapping.items():
        path = f"{section}.{key}" if section else str(key)
        hint = dict if path in _SECTIONS else CONFIG_SCHEMA.get(path)
        if hint is None or "." in str(key):
            raise ConfigError(f"{source}: {path}: unknown key")
        try:
            value = _typed(value, hint[0] if isinstance(hint, tuple) else hint)
        except TypeError as exc:
            raise ConfigError(f"{source}: {path}: {exc}") from None
        out[key] = _checked(value, source, path) if isinstance(value, dict) else value
    for path, entry in [*((p, (dict, {})) for p in _SECTIONS), *CONFIG_SCHEMA.items()]:
        parent, _, key = path.rpartition(".")
        if parent == section and key not in out and isinstance(entry, tuple):
            out[key] = _checked({}, source, path) if entry[0] is dict else entry[1]
    return out


def _load_config(path: str | None) -> tuple[dict, dict]:
    """The config as written, for the manifest, and as checked, with defaults filled in."""
    if path is None:
        return {}, _checked({}, "")
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a mapping of sections")
    return cfg, _checked(cfg, path)


def _build(cls, section: dict):
    """``cls`` from the keys the section sets; the others keep the field defaults."""
    return cls(**{f.name: section[f.name] for f in dataclasses.fields(cls) if f.name in section})


NOT_A_RANK = "is neither a rank >= 1 nor an energy fraction in (0, 1)"


def _rank_or_fraction(value: int | float) -> bool:  # as hankel_svd_denoise takes it; not NaN
    return 0.0 < value < 1.0 if isinstance(value, float) else value >= 1


def _experiment_config(conf: dict, args, searched: bool) -> pipeline.ExperimentConfig:
    exp = conf["experiment"]
    seeds = exp.get("seeds", (args.seed,))
    sp = exp["split"]
    try:
        split = (pipeline.SplitSpec.index(sp.get("start_index")) if sp["mode"] == "index"
                 else pipeline.SplitSpec.fraction(sp["start_fraction"]))
    except ValueError as exc:
        raise ConfigError(f"{args.config}: experiment.split: {exc}") from None
    if not 0.0 < exp["scale_band"] <= 1.0:  # NaN fails too
        raise ConfigError(
            f"{args.config}: experiment.scale_band = {exp['scale_band']} outside (0, 1]"
        )
    if not _rank_or_fraction(rank := exp["denoise_rank"]):  # checked with denoise off too
        raise ConfigError(f"{args.config}: experiment.denoise_rank = {rank} {NOT_A_RANK}")

    net, tr = exp.get("network"), exp["training"]
    if net == "ssa-tuned" and not searched:
        raise ConfigError(
            f"{args.config}: experiment.network = ssa-tuned needs a search (hpo or fleet)"
        )
    # checked with a search too, though it picks both, so one file serves train and hpo
    if not isinstance(net, dict):  # the schema's defaults: the baseline network
        net = _checked({}, "", "experiment.network")
    if net["candidate_form"] != "reset_gated":
        raise ConfigError(
            f"candidate_form {net['candidate_form']!r} is not supported (only reset_gated)"
        )
    # the raw values, so every violation is listed before the spec checks any; units,
    # epochs and batch may sit below the searched domain for desk-scale runs
    domain = ssa.encode_hyperparameters(
        unit_range=(1, ssa.UNIT_RANGE[1]), epochs_range=(1, ssa.EPOCHS_RANGE[1])
    )
    explicit = {**{f"gru_units[{i}]": u for i, u in enumerate(net["gru_units"], 1)},
                **{k: tr[k] for k in ("max_epochs", "learning_rate", "batch_size")},
                **{f"dropout_rates[{i}]": d for i, d in enumerate(net["dropout_rates"], 1)}}
    names = [f"experiment.{'training' if key in tr else 'network'}.{key}" for key in explicit]
    problems = domain.violations(list(explicit.values()), names)
    if problems:
        raise ConfigError(f"{args.config}: hyperparameters violate bounds: " + "; ".join(problems))
    network, training = "ssa-tuned", None
    if not searched:
        network = DualBiGRUSpec(exp["window_length"], net["gru_units"], net["dropout_rates"])
        period = round(ssa.LR_DROP_RATIO * tr["max_epochs"])
        training = TrainingConfig(**{"lr_drop_period": period, **tr}, seed=seeds[0])

    s, ranges = conf["ssa"], conf["ssa"]["ranges"]
    return pipeline.ExperimentConfig(
        split, network, training, seeds=seeds,
        **{k: exp[k] for k in ("denoise", "denoise_rank", "scale_band", "window_length")},
        ssa=ssa.SSAConfig(s["pop_size"], s["max_iter"], seed=args.seed) if searched else None,
        search_space=ssa.encode_hyperparameters(
            *(ranges[k] for k in ("units", "epochs", "learning_rate", "batch", "dropout"))
        ) if searched else None,
        jobs=getattr(args, "jobs", 1),  # train never searches, so it has no --jobs
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    written, conf = _load_config(args.config)
    kind = args.kind or conf["synth"]["kind"]
    params_class = {"cycles": pipeline.CycleSynthesisParams, "fleet": pipeline.FleetSynthesisParams}
    params = _build(params_class[kind], conf["synth"])
    manifest = build_manifest("synth", written, [], [args.seed])
    out_dir = _resolve_out_dir(args, manifest)
    paths = pipeline.synthesize_dataset(kind, params, args.seed, out_dir)
    _write_manifest(out_dir, manifest)
    for p in paths:
        print(p)
    return 0


def _check_extract(ex: dict, source: str | None) -> None:
    """ConfigError naming the first key of the extract section that the stage cannot use."""
    window, order, denominator = ex["sg_window"], ex["sg_order"], ex["soh_denominator"]
    checks = [  # NaN fails the comparisons too
        ("soh_denominator", denominator,  # "first", "max" or a capacity
         isinstance(denominator, str) or 0.0 < denominator < math.inf,
         "is not a positive capacity"),
        ("bin_width", ex["bin_width"], 0.0 < ex["bin_width"] < math.inf, "is not a positive width"),
        ("sg_order", order, order >= 0, "is negative"),
        ("sg_window", window, window % 2 == 1, "is not odd"),
        ("sg_window", window, window > order, f"does not exceed extract.sg_order = {order}"),
        ("area_halfwidths", [], bool(ex["area_halfwidths"]), "is empty"),
        *((f"area_halfwidths[{i}]", hw, 0.0 < hw < math.inf, "is not a positive width")
          for i, hw in enumerate(ex["area_halfwidths"], 1)),
        ("denoise", ex["denoise"], _rank_or_fraction(ex["denoise"]), NOT_A_RANK),
    ]
    for key, value, ok, why in checks:
        if not ok:
            raise ConfigError(f"{source}: extract.{key} = {value} {why}")


def _extract_artifacts(conf: dict, dataset: Path):
    """Shared extract stage: parse cycles, build indicators, rank them."""
    ex = conf["extract"]
    records, dropped = ingest.parse_cycle_file(
        dataset, _build(ingest.CycleSchema, conf["dataset"]["schema"])
    )
    soh = ingest.compute_soh(
        [r.measured_capacity for r in records],
        denominator=ex["soh_denominator"],
        index=[r.cycle_index for r in records],
    )
    try:
        curves = icfeatures.smooth_curves(
            [icfeatures.compute_ic_curve(r, ex["bin_width"]) for r in records],
            ex["sg_window"], ex["sg_order"],
        )
        sweep = icfeatures.sweep_area_boundaries(curves, soh, ex["area_halfwidths"])
        rows = icfeatures.feature_rows(curves, area_halfwidth=sweep.halfwidth)
    except ValueError as exc:
        raise ValueError(f"{dataset}: {exc}") from None

    candidates = [
        HISeries("MF", np.array([r.mf for r in rows])),
        HISeries("PF", np.array([r.pf for r in rows])),
        HISeries("CF", np.array([r.cf for r in rows])),
        HISeries("WF", np.array([r.wf for r in rows])),
        HISeries("Kur", np.array([r.kur for r in rows])),
        sweep.series,
        HISeries("Peak", np.array([r.peak for r in rows])),
    ]
    # on one BLAS thread: a second gains nothing on a cell's Hankel SVDs (a
    # 300-cycle cell's are 151 x 150), and on 2 shared cores it stretched
    # some processes' seven from 0.04 s to about 1 s
    with blas.one_thread():
        report = rank_his(
            candidates, soh, denoise_rank=ex["denoise"], ranked_correlation=ex["ranked_correlation"]
        )
    if ex["hi"] == "auto":
        chosen = select_hi(report, candidates, top_k=1)[0]
    else:
        chosen = next(c for c in candidates if c.name == ex["hi"])
    return records, dropped, soh, sweep, rows, report, chosen


def _dataset_path(args, conf: dict) -> Path:
    path = args.dataset or conf["dataset"].get("path")
    if not path:
        raise ConfigError("a dataset is required (--dataset or dataset.path)")
    return Path(path)


def cmd_extract(args) -> int:
    written, conf = _load_config(args.config)
    _check_extract(conf["extract"], args.config)
    dataset = _dataset_path(args, conf)
    if not dataset.is_file():
        raise ConfigError(f"dataset file not found: {dataset}")
    manifest = build_manifest("extract", written, [dataset], [args.seed])
    records, dropped, soh, sweep, rows, report, chosen = _extract_artifacts(conf, dataset)
    out_dir = _resolve_out_dir(args, manifest)
    h = manifest["hash"]

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


def _load_hi_inputs(args, conf: dict) -> tuple[Path, HISeries, ingest.SOHSeries]:
    table = args.hi_table or conf["dataset"].get("hi_table")
    if table is None:
        raise ConfigError("an indicator table is required (--hi-table or dataset.hi_table)")
    table = Path(table)
    if not table.is_file():
        raise ConfigError(f"indicator table not found: {table}")
    hi, soh = read_hi_table(table)
    return table, hi, soh


def _write_report(out_dir: Path, h: str, name: str, report: pipeline.PredictionReport,
                  table_index: tuple[int, ...], index_name: str) -> None:
    """``index`` is the position in the series; ``index_name`` its own index there."""
    _write_table(
        out_dir / name,
        h,
        ["index", "true_soh", "predicted_soh", index_name],
        [[int(i), float(t), float(p), table_index[i]]
         for i, t, p in zip(report.indices, report.true_soh, report.predicted_soh)],
    )


def _write_summary(out_dir: Path, h: str, rows: list[list]) -> None:
    _write_table(
        out_dir / "summary.csv",
        h,
        ["fingerprint", "label", "split", "rmse", "mae", "mape_pct"],
        rows,
    )


def _write_search(out_dir: Path, h: str, model: DualBiGRUSpec, training: TrainingConfig,
                  history: list[ssa.IterationRecord]) -> None:
    """Write a search's ``ssa_history.csv`` and its winner, ``best_config.yaml``."""
    _write_table(
        out_dir / "ssa_history.csv",
        h,
        ["iteration", "best_fitness", "evaluations", "failures"]
        + [f"pos{i}" for i in range(len(history[0].best_position))]
        + ["repeats"],
        [[r.iteration, r.best_fitness, r.evaluations, r.failures,
          *[float(v) for v in r.best_position], r.repeats]
         for r in history],
    )
    best = {"experiment": {
        "window_length": model.window_length,
        "network": {"gru_units": [int(u) for u in model.gru_units],
                    "dropout_rates": [float(d) for d in model.dropout_rates]},
        "training": {k: getattr(training, k) for k in (
            "max_epochs", "learning_rate", "lr_drop_period", "lr_drop_factor", "batch_size")},
    }}
    (out_dir / "best_config.yaml").write_text(yaml.safe_dump(best, sort_keys=True))


def _run_experiment(args, searched: bool) -> int:
    written, conf = _load_config(args.config)
    config = _experiment_config(conf, args, searched)
    table, hi, soh = _load_hi_inputs(args, conf)
    manifest = build_manifest("hpo" if searched else "train", written, [table], list(config.seeds))
    report, predictor, training, history = pipeline.train_and_predict(config, hi, soh)
    out_dir = _resolve_out_dir(args, manifest)
    h = manifest["hash"]

    _write_report(out_dir, h, "report.csv", report, soh.index, "cycle")
    _write_summary(
        out_dir,
        h,
        [[report.fingerprint, hi.name, config.split.label(), report.rmse, report.mae, report.mape]],
    )
    predictor.save(out_dir)  # model.bin holds the first seed's network
    if searched:  # the one search, whose winner every seed trained
        _write_search(out_dir, h, predictor.models[0], training, history)
    _write_manifest(out_dir, manifest)
    print(f"{out_dir} rmse={report.rmse!r}")
    return 0


def cmd_train(args) -> int:
    return _run_experiment(args, searched=False)


def cmd_hpo(args) -> int:
    return _run_experiment(args, searched=True)


def cmd_predict(args) -> int:
    written, conf = _load_config(args.config)
    model_path = Path(args.model)
    if not model_path.is_file():
        raise ConfigError(f"model file not found: {model_path}")
    table, hi, soh = _load_hi_inputs(args, conf)
    scaler_path = Path(args.scaler) if args.scaler else model_path.with_name("scaler.yaml")
    if not scaler_path.is_file():
        raise ConfigError(f"scaler file not found: {scaler_path}")
    # conditioning comes from the scaler file, never from --config
    predictor = pipeline.Predictor.load(model_path, scaler_path)

    manifest = build_manifest("predict", written, [table, model_path], [args.seed])
    report = predictor.report("-", hi.values, soh.values)
    out_dir = _resolve_out_dir(args, manifest)
    h = manifest["hash"]
    _write_report(out_dir, h, "predictions.csv", report, soh.index, "cycle")
    _write_summary(out_dir, h, [["-", hi.name, "full", report.rmse, report.mae, report.mape]])
    _write_manifest(out_dir, manifest)
    print(f"{out_dir} rmse={report.rmse!r}")
    return 0


class _VehicleLog(NamedTuple):
    """What the fleet run keeps of one vehicle's log."""

    soh: ingest.SOHSeries
    monthly_rows: list[list]
    sha256: str


def _vehicle_id(path: Path) -> str:
    return path.stem.removeprefix("fleet_")


def _read_vehicle(path: Path, schema: ingest.FleetSchema, stat: str) -> _VehicleLog:
    """Parse one vehicle's log into its monthly SOH series and ``monthly.csv`` rows."""
    vid = _vehicle_id(path)
    segments = ingest.parse_fleet_file(path, schema, source_id=vid)
    records, _ = ingest.monthly_aggregate(segments)
    if not records:
        raise ingest.ParseError(
            f"{path}: no month has {ingest.MIN_MONTHLY_EVENTS} or more usable charging events"
        )
    caps = [r.median_capacity if stat == "median" else r.mean_capacity for r in records]
    soh = ingest.compute_soh(caps, denominator="max", index=[r.month for r in records])
    rows = [[vid, r.month, len(r.capacities), r.median_capacity, r.mean_capacity] for r in records]
    return _VehicleLog(soh, rows, _file_sha256(path))


def _read_fleet_and_fit(files, train_index, schema, stat, config, workers):
    """Read every log and fit the predictor of the log at ``train_index``.

    With no ``workers``, this process reads every log in file order, then
    fits.  Otherwise a :func:`ssa.fork_pool` of ``workers`` readers reads
    the other vehicles' logs while this process reads the training
    vehicle's log and fits, so at most ``workers`` + 1 processes compute at
    once.  This process reads no other log, so its peak memory does not
    depend on how fast the readers were.  Returns the logs in file order
    and what :func:`pipeline.fit_predictor` returns.  Errors come out in
    the order of a serial run: a read error of an earlier file before that
    of a later one, and any read error before a fitting error.

    The readers are forked, not spawned: a spawned reader would import
    NumPy and the package again, which takes about as long as a parse.
    The pool forks every reader on the first submit, before this process
    reads a log.  The readers parse and make no BLAS calls, so their BLAS
    threads are left alone.
    """
    from concurrent.futures import Future

    def settle(fn, *fn_args) -> Future:
        future = Future()
        try:
            future.set_result(fn(*fn_args))
        except Exception as exc:  # raised where a serial run would raise it
            future.set_exception(exc)
        return future

    def fit():
        for i in here:  # no fit after a read error in this process
            reads[i].result()
        values = reads[train_index].result().soh.values
        return pipeline.fit_predictor(config, values, values)

    here = [train_index] if workers else range(len(files))
    lost = "the fleet lost a worker process before it returned a vehicle's log"
    with ssa.fork_pool(workers, lost) if workers else contextlib.nullcontext() as pool:
        reads = [None if i in here else pool.submit(_read_vehicle, path, schema, stat)
                 for i, path in enumerate(files)]
        for i in here:  # in file order, up to the first read error
            reads[i] = settle(_read_vehicle, files[i], schema, stat)
            if reads[i].exception() is not None:
                break
        fitted = settle(fit)
        logs = [read.result() for read in reads]
    return logs, fitted.result()


def cmd_fleet(args) -> int:
    written, conf = _load_config(args.config)
    try:
        start = pipeline.SplitSpec.index(conf["fleet"]["start_index"])
    except ValueError as exc:
        raise ConfigError(f"{args.config}: fleet.start_index: {exc}") from None
    searched = conf["experiment"].get("network") == "ssa-tuned"
    config = _experiment_config(conf, args, searched)
    schema = _build(ingest.FleetSchema, conf["dataset"]["schema"])
    data_dir = _dataset_path(args, conf)
    files = sorted(data_dir.glob("fleet_*.csv"))
    if not files:
        raise ConfigError(f"no fleet_*.csv files under {data_dir}")
    vids = [_vehicle_id(p) for p in files]
    train_vehicle = conf["fleet"].get("train_vehicle", min(vids))
    if train_vehicle not in vids:
        raise ValueError(f"training vehicle {train_vehicle!r} not in dataset")

    # --jobs counts this process too; a search keeps the cores for its own pool
    workers = 0 if searched else min(args.jobs - 1, len(files) - 1)
    logs, (predictor, training, history) = _read_fleet_and_fit(
        files, vids.index(train_vehicle), schema, conf["fleet"]["stat"], config, workers
    )
    vehicle_soh = {vid: log.soh for vid, log in zip(vids, logs)}

    manifest = build_manifest(
        "fleet", written, files, list(config.seeds), [log.sha256 for log in logs]
    )
    results = pipeline.run_fleet(train_vehicle, vehicle_soh, start, config, predictor)
    out_dir = _resolve_out_dir(args, manifest)
    h = manifest["hash"]
    _write_table(
        out_dir / "monthly.csv",
        h,
        ["vehicle", "month", "events", "median_capacity_ah", "mean_capacity_ah"],
        [row for log in logs for row in log.monthly_rows],
    )
    summary_rows = []
    for vid, report in results:
        months = vehicle_soh[vid].index
        _write_report(out_dir, h, f"fleet_{vid}_report.csv", report, months, "month")
        summary_rows.append([report.fingerprint, vid, start.label(), report.rmse, report.mae, report.mape])
    _write_summary(out_dir, h, summary_rows)
    if searched:
        _write_search(out_dir, h, predictor.models[0], training, history)
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
        # the CPUs this process may run on; without an affinity call, all of them
        if hasattr(os, "sched_getaffinity"):
            default = len(os.sched_getaffinity(0))
        else:
            default = os.cpu_count()
        p.add_argument("--jobs", type=int, default=default,
                       help="processes computing at once: a search scores its candidates on "
                            "that many forked workers, and fleet parses the other vehicles' "
                            "logs on all but one while this process trains "
                            f"(default: the CPUs this process may use, {default})")

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
