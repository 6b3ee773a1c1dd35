"""The run-config schema: every key a config may set, checked before a run starts."""

import argparse
import importlib.util
import re
import sys
from pathlib import Path

import pytest
import yaml

from sohpred import cli, pipeline
from sohpred.neuralnet import DivergenceError, DualBiGRUSpec, TrainingConfig, load_model

ROOT = Path(__file__).resolve().parents[1]

# a valid config touching every section, which the cases below break one key at a time
BASE = {
    "synth": {"kind": "cycles", "n_cycles": 40},
    "dataset": {"path": "cells.csv", "schema": {"cycle": "cycle", "soc_in_percent": True}},
    "extract": {"sg_window": 21, "hi": "auto"},
    "experiment": {
        "split": {"mode": "fraction", "start_fraction": 0.25},
        "seeds": [0],
        "network": {"gru_units": [8, 8, 8, 8], "dropout_rates": [0.02] * 4},
        "training": {"max_epochs": 40, "learning_rate": 0.01},
    },
    "ssa": {"pop_size": 3, "ranges": {"units": [6, 24]}},
    "fleet": {"stat": "median", "start_index": 2},
}

UNKNOWN = [
    ("synth", "n_cycle"),
    ("dataset", "paths"),
    ("dataset.schema", "volts"),
    ("extract", "binwidth"),
    ("experiment", "seed"),
    ("experiment.split", "start"),
    ("experiment.network", "units"),
    ("experiment.training", "max_epoch"),
    ("ssa", "pop"),
    ("ssa.ranges", "unit"),
    ("fleet", "stats"),
]

WRONG_TYPE = [
    ("synth.n_cycles", "40"),
    ("dataset.path", 3),
    ("dataset.schema.soc_in_percent", "yes"),
    ("extract.sg_window", 21.0),
    ("extract.soh_denominator", "bogus"),
    ("experiment.seeds", 0),
    ("experiment.split.start_fraction", "a quarter"),
    ("experiment.network.gru_units", 16),
    ("experiment.network.gru_units", [8, 8, 8]),
    ("experiment.training.max_epochs", True),
    ("ssa.pop_size", 6.5),
    ("ssa.ranges.units", [6]),
    ("fleet.start_index", "2"),
    ("fleet.stat", "bogus"),
    ("experiment", [1, 2]),
]

COMMANDS = {
    "synth": [],
    "extract": ["--dataset", "cells.csv"],
    "train": ["--hi-table", "hi.csv"],
    "hpo": ["--hi-table", "hi.csv", "--jobs", "1"],
    "predict": ["--model", "model.bin", "--hi-table", "hi.csv"],
    "fleet": ["--dataset", "fleet", "--jobs", "1"],
}


def with_value(path: str, value) -> dict:
    cfg = yaml.safe_load(yaml.safe_dump(BASE))
    *sections, key = path.split(".")
    node = cfg
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    return cfg


@pytest.fixture
def no_parsing(monkeypatch):
    def parsed(*args, **kwargs):
        raise AssertionError("a file was parsed")

    for name in ("parse_cycle_file", "parse_fleet_file"):
        monkeypatch.setattr(cli.ingest, name, parsed)
    monkeypatch.setattr(cli, "read_hi_table", parsed)
    monkeypatch.setattr(cli.pipeline.Predictor, "load", parsed)


def run_with(tmp_path, cfg: dict, command: str, capsys, argv=None) -> str:
    """stderr of ``command`` failing on ``cfg``; ``argv`` defaults to COMMANDS[command]."""
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    argv = COMMANDS[command] if argv is None else argv
    code = cli.main([command, "--config", str(config), *argv, "--out", str(out)])
    assert code == 1
    assert not out.exists()
    return capsys.readouterr().err


def test_base_config_is_valid(tmp_path):
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(BASE))
    cfg, conf = cli._load_config(str(config))
    assert cfg == BASE  # as written, for the manifest
    assert conf["experiment"]["network"]["gru_units"] == (8, 8, 8, 8)
    assert conf["experiment"]["training"]["batch_size"] == TrainingConfig.batch_size


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("section, key", UNKNOWN)
def test_unknown_key_names_file_and_key(tmp_path, capsys, no_parsing, command, section, key):
    cfg = with_value(f"{section}.{key}", 1)
    err = run_with(tmp_path, cfg, command, capsys)
    assert err == f"error: {tmp_path / 'cfg.yaml'}: {section}.{key}: unknown key\n"


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("path, value", WRONG_TYPE)
def test_wrong_type_names_file_and_key(tmp_path, capsys, no_parsing, command, path, value):
    err = run_with(tmp_path, with_value(path, value), command, capsys)
    assert err.startswith(f"error: {tmp_path / 'cfg.yaml'}: {path}: expected ")
    assert err.rstrip().endswith(f"got {value!r}")


def test_unknown_section_names_file_and_key(tmp_path, capsys, no_parsing):
    err = run_with(tmp_path, {**BASE, "experimnet": {}}, "train", capsys)
    assert err == f"error: {tmp_path / 'cfg.yaml'}: experimnet: unknown key\n"


def test_dotted_key_is_unknown(tmp_path, capsys, no_parsing):
    err = run_with(tmp_path, {**BASE, "experiment.seeds": [1]}, "train", capsys)
    assert "experiment.seeds: unknown key" in err


# ---------------------------------------------------------------------------
# a value checked after the schema still fails before a byte of data is read


@pytest.fixture
def inputs_in_place(tmp_path, monkeypatch, no_parsing):
    """The inputs COMMANDS names, present in the working directory; none can be parsed."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fleet").mkdir()
    for name in ("cells.csv", "hi.csv", "fleet/fleet_V01.csv", "fleet/fleet_V02.csv"):
        (tmp_path / name).write_text("")


# a command that reads data, and the arguments after its config
DATA_RUNS = {
    "train": ("train", COMMANDS["train"]),
    "hpo-jobs2": ("hpo", ["--hi-table", "hi.csv", "--jobs", "2"]),
    "fleet-jobs1": ("fleet", ["--dataset", "fleet", "--jobs", "1"]),
    "fleet-jobs2": ("fleet", ["--dataset", "fleet", "--jobs", "2"]),
}
FLEET = {name: run for name, run in DATA_RUNS.items() if name.startswith("fleet")}


@pytest.mark.parametrize("command, argv", DATA_RUNS.values(), ids=DATA_RUNS)
def test_experiment_value_fails_before_any_file_is_parsed(tmp_path, capsys, inputs_in_place,
                                                          command, argv):
    err = run_with(tmp_path, with_value("experiment.scale_band", 0), command, capsys, argv)
    assert err == f"error: {tmp_path / 'cfg.yaml'}: experiment.scale_band = 0.0 outside (0, 1]\n"


@pytest.mark.parametrize("command, argv", FLEET.values(), ids=FLEET)
def test_fleet_start_fails_before_any_file_is_parsed(tmp_path, capsys, inputs_in_place,
                                                     command, argv):
    err = run_with(tmp_path, with_value("fleet.start_index", 0), command, capsys, argv)
    assert err == (f"error: {tmp_path / 'cfg.yaml'}: fleet.start_index: "
                   "index mode needs start_index >= 1\n")


@pytest.mark.parametrize("value, shown", [(-1.0, "-1.0"), (0, "0.0"), (float("nan"), "nan"),
                                          (float("inf"), "inf")])
def test_soh_denominator_fails_before_the_cell_is_parsed(tmp_path, capsys, inputs_in_place,
                                                         value, shown):
    err = run_with(tmp_path, with_value("extract.soh_denominator", value), "extract", capsys)
    assert err == (f"error: {tmp_path / 'cfg.yaml'}: "
                   f"extract.soh_denominator = {shown} is not a positive capacity\n")


@pytest.fixture
def hi_table(tmp_path):
    rows = [f"{i},{0.5 + 0.01 * i!r},{1.0 - 0.002 * i!r}" for i in range(40)]
    path = tmp_path / "hi.csv"
    path.write_text("\n".join(["# manifest x", "index,MF,soh", *rows]) + "\n")
    return path


def train_with(tmp_path, text: str, hi_table) -> tuple[int, Path]:
    config = tmp_path / "cfg.yaml"
    config.write_text(text)
    out = tmp_path / "out"
    return cli.main(["train", "--config", str(config), "--hi-table", str(hi_table),
                     "--out", str(out)]), out


TINY = """\
experiment:
  window_length: 4
  seeds: [0]
  network: {gru_units: [4, 4, 4, 4], dropout_rates: [0.02, 0.02, 0.02, 0.02]}
  training: {max_epochs: 3, batch_size: 8, learning_rate: %s}
"""


def test_float_written_as_exponent_reads_as_number(tmp_path, hi_table, capsys):
    # PyYAML loads 1e-3 (no dot) as a string; float() reads it
    code, out = train_with(tmp_path, TINY % "1e-3", hi_table)
    assert code == 1 and not out.exists()
    assert "learning_rate = 0.001 outside [0.005, 0.015]" in capsys.readouterr().err

    code, out = train_with(tmp_path, TINY % "1e-2", hi_table)
    assert code == 0
    manifest = yaml.safe_load((out / "manifest.json").read_text())
    assert manifest["config"]["experiment"]["training"]["learning_rate"] == "1e-2"  # as written


def test_misspelled_training_key_fails_instead_of_training_500_epochs(tmp_path, hi_table, capsys):
    code, out = train_with(tmp_path, (TINY % "0.01").replace("max_epochs", "max_epoch"), hi_table)
    assert code == 1 and not out.exists()
    assert "experiment.training.max_epoch: unknown key" in capsys.readouterr().err


def test_index_split_without_start_index(tmp_path, hi_table, capsys):
    code, out = train_with(tmp_path, TINY % "0.01" + "  split: {mode: index}\n", hi_table)
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'cfg.yaml'}: experiment.split: ")
    assert "start_index" in err


def test_unknown_split_mode(tmp_path, hi_table, capsys):
    code, out = train_with(tmp_path, TINY % "0.01" + "  split: {mode: indx}\n", hi_table)
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'cfg.yaml'}: experiment.split.mode: ")
    assert "'indx'" in err


@pytest.mark.parametrize("value, shown", [("0", "0.0"), ("-1.0", "-1.0"), (".nan", "nan")])
def test_scale_band_outside_the_unit_interval_names_the_key(tmp_path, hi_table, capsys, value, shown):
    code, out = train_with(tmp_path, f"experiment:\n  scale_band: {value}\n", hi_table)
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'cfg.yaml'}: experiment.scale_band = {shown} outside (0, 1]\n"


@pytest.mark.parametrize("section, shown", [
    ("{bin_width: 0}", "extract.bin_width = 0.0 is not a positive width"),
    ("{sg_order: -1}", "extract.sg_order = -1 is negative"),
    ("{area_halfwidths: [0.1, 0]}", "extract.area_halfwidths[2] = 0.0 is not a positive width"),
    ("{sg_window: 20}", "extract.sg_window = 20 is not odd"),
    ("{sg_window: 3, sg_order: 3}", "extract.sg_window = 3 does not exceed extract.sg_order = 3"),
    ("{denoise: 1.5}", "extract.denoise = 1.5 is neither a rank >= 1 nor an energy fraction in (0, 1)"),
])
def test_extract_value_the_stage_cannot_use_names_the_key(tmp_path, capsys, section, shown):
    # checked where the config is read, before the dataset is parsed
    config = tmp_path / "cfg.yaml"
    config.write_text(f"extract: {section}\n")
    out = tmp_path / "ext"
    code = cli.main(["extract", "--config", str(config), "--dataset", str(tmp_path / "none.csv"),
                     "--out", str(out)])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == f"error: {config}: {shown}\n"


@pytest.mark.parametrize("value, shown", [("1.5", "1.5"), ("0", "0"), (".nan", "nan")])
def test_train_denoise_rank_the_stage_cannot_use_names_the_key(tmp_path, hi_table, capsys, value, shown):
    # checked where the config is read, by the rule extract.denoise is checked by
    code, out = train_with(tmp_path, f"experiment:\n  denoise_rank: {value}\n", hi_table)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'cfg.yaml'}: experiment.denoise_rank = {shown} {cli.NOT_A_RANK}\n"
    )


def test_every_key_read_before_is_settable():
    settable = set(cli.CONFIG_SCHEMA)
    assert len(settable) == 70  # 69 values and experiment.network itself
    for key in ("synth.step_voltages", "synth.step_widths", "ssa.producer_fraction",
                "experiment.training.adam_beta1", "experiment.training.seed"):
        assert key not in settable


# ---------------------------------------------------------------------------
# every shipped config loads


def test_readme_config_loads(tmp_path):
    blocks = re.findall(r"```yaml\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme{i}.yaml"
        path.write_text(block)
        cli._load_config(str(path))


def test_benchmark_workload_configs_load(tmp_path, monkeypatch):
    path = ROOT / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    written = []
    for toy in (True, False):
        for name, prepare in workloads.WORKLOADS.items():
            if name == "extract-lab":  # runs without a config
                continue
            work = tmp_path / f"{name}-{toy}"
            work.mkdir()
            prepare(work, 0, toy, {})
            written += sorted(work.glob("*.yaml"))
    assert len(written) == 6
    for path in written:
        cli._load_config(str(path))


def test_best_config_trains_the_recorded_network(tmp_path):
    cfg = {
        "synth": {"kind": "cycles", "n_cycles": 40, "sample_period_s": 6.0},
        "experiment": {"window_length": 4, "seeds": [0]},
        "ssa": {"pop_size": 3, "max_iter": 1, "ranges": {"units": [6, 12], "epochs": [5, 8]}},
    }
    config = tmp_path / "cfg.yaml"
    config.write_text(yaml.safe_dump(cfg))
    run = lambda *argv: cli.main([str(a) for a in argv])  # noqa: E731
    data, ext, hpo = tmp_path / "data", tmp_path / "ext", tmp_path / "hpo"
    assert run("synth", "--config", config, "--out", data) == 0
    assert run("extract", "--dataset", data / "cycles.csv", "--out", ext) == 0
    hi = ext / "hi_top.csv"
    assert run("hpo", "--config", config, "--hi-table", hi, "--jobs", 1, "--out", hpo) == 0
    best = hpo / "best_config.yaml"
    cli._load_config(str(best))
    assert run("train", "--config", best, "--hi-table", hi, "--out", tmp_path / "train") == 0
    recorded = yaml.safe_load(best.read_text())["experiment"]["network"]
    model = load_model(tmp_path / "train" / "model.bin")
    assert list(model.gru_units) == recorded["gru_units"]
    assert list(model.dropout_rates) == recorded["dropout_rates"]


# ---------------------------------------------------------------------------
# a training section without a network mapping trains the baseline network


@pytest.mark.parametrize("key, value, problem", [
    ("batch_size", 0, "experiment.training.batch_size = 0 outside [1, 20]"),
    ("learning_rate", -1, "experiment.training.learning_rate = -1.0 outside [0.005, 0.015]"),
    ("max_epochs", 0, "experiment.training.max_epochs = 0 outside [1, 700]"),
])
def test_training_alone_is_checked_against_the_domain(tmp_path, hi_table, capsys, key, value, problem):
    code, out = train_with(tmp_path, f"experiment:\n  training: {{{key}: {value}}}\n", hi_table)
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err == f"error: {tmp_path / 'cfg.yaml'}: hyperparameters violate bounds: {problem}\n"


def test_training_alone_applies_to_the_baseline_network(tmp_path, hi_table, monkeypatch):
    seen = []

    def stop(spec, training, batch):
        seen.append((spec, training))
        raise DivergenceError("stopped once the settings are known")

    monkeypatch.setattr(pipeline, "train", stop)
    code, _ = train_with(tmp_path, "experiment:\n  training: {max_epochs: 2, batch_size: 4}\n", hi_table)
    assert code == 1
    (spec, training), = seen
    assert spec == DualBiGRUSpec(spec.window_length, (128,) * 4, (0.02,) * 4)
    assert training == TrainingConfig(2, 0.01, 1, 0.01, batch_size=4)


BASELINE_NETWORK = {"gru_units": [128] * 4, "dropout_rates": [0.02] * 4}
BASELINE_TRAINING = {"max_epochs": 500, "learning_rate": 0.01, "lr_drop_period": 350,
                     "lr_drop_factor": 0.01, "batch_size": 16}


def resolved(tmp_path, cfg: dict):
    """The spec, training and fingerprint with which ``train`` runs ``cfg``."""
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    args = argparse.Namespace(config=str(path), seed=0)
    config = cli._experiment_config(cli._load_config(str(path))[1], args, searched=False)
    spec, training, _ = pipeline._resolve_network(config, None, None)
    return spec, training, pipeline.config_fingerprint(config)


@pytest.mark.parametrize("cfg, twin", [
    ({}, {"network": BASELINE_NETWORK}),
    ({"experiment": {"training": {"max_epochs": 2, "batch_size": 4}}},
     {"network": BASELINE_NETWORK, "training": {"max_epochs": 2, "batch_size": 4}}),
    ({"experiment": {"network": BASELINE_NETWORK, "training": BASELINE_TRAINING}},
     {"network": BASELINE_NETWORK}),
], ids=["no-experiment", "training-alone", "written-out"])
def test_one_set_of_hyperparameters_has_one_fingerprint(tmp_path, cfg, twin):
    """A run without a network section is the run that writes the baseline network out."""
    spec, training, fingerprint = resolved(tmp_path, cfg)
    assert spec == DualBiGRUSpec(5, (128,) * 4, (0.02,) * 4)
    assert (spec, training, fingerprint) == resolved(tmp_path, {"experiment": twin})


def test_run_without_a_search_hashes_no_search_domain(tmp_path):
    """The ssa section leaves a train run's fingerprint alone: it is the library's config."""
    cfg = {"experiment": {"training": {"max_epochs": 20, "batch_size": 8}}}
    fingerprint = resolved(tmp_path, cfg)[2]
    for section in ({"ranges": {"units": [25, 100]}}, {"pop_size": 9}):
        assert resolved(tmp_path, {**cfg, "ssa": section})[2] == fingerprint
    library = pipeline.ExperimentConfig(
        pipeline.SplitSpec.fraction(0.25), DualBiGRUSpec(5, (128,) * 4, (0.02,) * 4),
        TrainingConfig(20, 0.01, 14, batch_size=8), seeds=(0,),
    )
    assert fingerprint == pipeline.config_fingerprint(library) == "e44ca5197d1bcbf7"


# ---------------------------------------------------------------------------
# hpo checks the sections its search replaces, as train does


TINY_SEARCH = "ssa: {pop_size: 2, max_iter: 1, ranges: {units: [4, 8], epochs: [1, 2]}}\n"


@pytest.mark.parametrize("section, problem", [
    ("training: {batch_size: 0}", "experiment.training.batch_size = 0 outside [1, 20]"),
    ("training: {learning_rate: -1}",
     "experiment.training.learning_rate = -1.0 outside [0.005, 0.015]"),
    ("training: {max_epochs: 0}", "experiment.training.max_epochs = 0 outside [1, 700]"),
    ("network: {gru_units: [8, 0, 8, 8]}", "experiment.network.gru_units[2] = 0 outside [1, 200]"),
    ("network: {dropout_rates: [0.02, 0.02, 0.9, 0.02]}",
     "experiment.network.dropout_rates[3] = 0.9 outside [0.002, 0.2]"),
])
def test_hpo_checks_the_sections_it_searches(tmp_path, hi_table, capsys, section, problem):
    config = tmp_path / "cfg.yaml"
    config.write_text(f"experiment:\n  {section}\n" + TINY_SEARCH)
    out = tmp_path / "out"
    code = cli.main(["hpo", "--config", str(config), "--hi-table", str(hi_table), "--jobs", "1",
                     "--out", str(out)])
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err == f"error: {config}: hyperparameters violate bounds: {problem}\n"


def test_hpo_checks_the_candidate_form(tmp_path, hi_table, capsys):
    config = tmp_path / "cfg.yaml"
    config.write_text("experiment:\n  network: {candidate_form: concat}\n" + TINY_SEARCH)
    out = tmp_path / "out"
    code = cli.main(["hpo", "--config", str(config), "--hi-table", str(hi_table), "--jobs", "1",
                     "--out", str(out)])
    assert code == 1 and not out.exists()
    assert "candidate_form 'concat' is not supported" in capsys.readouterr().err


@pytest.mark.parametrize("value, shown", [("0", "0"), ("2.0", "2.0")])
def test_hpo_denoise_rank_the_stage_cannot_use_names_the_key(tmp_path, hi_table, capsys, value, shown):
    config = tmp_path / "cfg.yaml"
    config.write_text(f"experiment:\n  denoise_rank: {value}\n" + TINY_SEARCH)
    out = tmp_path / "out"
    code = cli.main(["hpo", "--config", str(config), "--hi-table", str(hi_table), "--jobs", "1",
                     "--out", str(out)])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        f"error: {config}: experiment.denoise_rank = {shown} {cli.NOT_A_RANK}\n"
    )
