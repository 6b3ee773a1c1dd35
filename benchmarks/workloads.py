"""The four benchmark workloads: generated inputs, the CLI calls of one
operation, and the checks on what those calls write.

Inputs come from ``pipeline.synthesize_*`` keyed by the workload seed; the
CLI itself always runs with ``--seed 0``, so the seed changes the data and
never the training protocol.  Every operation is a short chain of
``sohpred`` calls whose ``--out`` directories sit under one directory, so
a traced and an untraced execution of the same operation can be compared
file by file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WINDOW = 5  # pipeline.DEFAULT_WINDOW_LENGTH: report indices depend on it
TRAIN_START_FRACTION = 0.25  # the CLI's default split
FLEET_START_MONTH = 2  # the CLI's default fleet.start_index
# Stated tolerances of the output checks.  RMSE_RTOL is relative to the
# recorded reference RMSE of the same seed.  Extract's coefficients are
# closed-form statistics, so they must match their reference almost exactly.
# Seeds without a reference are held to the ceilings and the floor instead,
# set about twice as loose as the worst of seeds 0-19.
RMSE_RTOL = 0.05
COEFF_ATOL = 1e-9
RMSE_CEILING = 0.2  # train, predict and hpo (seeds 0-19: at most 0.11)
FLEET_RMSE_CEILING = 0.02  # mean over vehicles (seeds 0-19: at most 0.0056)
MIN_TOP_COEFF = 0.95  # |coefficient| of the chosen indicator (seeds 0-19: at least 0.991)


@dataclass(frozen=True)
class Op:
    """One operation: a chain of CLI calls on one input, and its checks."""

    label: str
    calls: Callable[[Path, int], list[list[str]]]  # (out root, jobs) -> argv per call
    check: Callable[[Path], list[str]]  # out root -> problems found
    reference: Callable[[Path], dict]  # out root -> values the checks compare against
    jobs: int = 1


# ---------------------------------------------------------------------------
# reading CLI outputs


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("# ")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def summary_rmse(out: Path) -> list[float]:
    header, rows = read_table(out / "summary.csv")
    col = header.index("rmse")
    return [float(r[col]) for r in rows]


def check_report(path: Path, expected: list[int]) -> list[str]:
    """Report indices equal ``expected`` and every prediction is finite."""
    if not path.is_file():
        return [f"{path.name} missing"]
    _, rows = read_table(path)
    problems = []
    if [int(r[0]) for r in rows] != expected:
        problems.append(f"{path.name}: wrong report indices")
    if not all(math.isfinite(float(r[2])) for r in rows):
        problems.append(f"{path.name}: non-finite prediction")
    return problems


def check_rmse(what: str, rmse: float, reference: float | None, ceiling: float) -> list[str]:
    if not math.isfinite(rmse):
        return [f"{what}: rmse {rmse}"]
    if reference is not None:
        if abs(rmse - reference) > RMSE_RTOL * reference:
            return [f"{what}: rmse {rmse!r} outside {RMSE_RTOL:.0%} of reference {reference!r}"]
    elif rmse > ceiling:
        return [f"{what}: rmse {rmse!r} above ceiling {ceiling}"]
    return []


def _cli_extract(dataset: Path, out: Path) -> None:
    """Run ``sohpred extract`` in this process (input preparation only)."""
    from sohpred import cli

    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["extract", "--dataset", str(dataset), "--out", str(out)]) != 0:
            raise RuntimeError(f"extract failed on {dataset}")


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=1) + "\n")  # JSON is YAML
    return path


# ---------------------------------------------------------------------------
# extract-lab


def _prepare_extract(work: Path, seed: int, toy: bool, reference: dict) -> list[Op]:
    from sohpred import pipeline

    n_cells, n_cycles = (1, 40) if toy else (4, 300)
    params = pipeline.CycleSynthesisParams(n_cycles=n_cycles)
    ops = []
    for cell in range(n_cells):
        dataset = pipeline.synthesize_cycles(params, seed * 16 + cell, work / f"cell{cell}.csv")
        ref = reference.get(f"cell{cell}")

        def check(out: Path, ref=ref) -> list[str]:
            _, corr = read_table(out / "correlation.csv")
            coeffs = {r[0]: float(r[1]) for r in corr}
            top = next(r[0] for r in corr if r[2] == "1")
            header, rows = read_table(out / "hi_top.csv")
            problems = []
            if header[1] != top:
                problems.append(f"hi_top.csv holds {header[1]}, ranking chose {top}")
            if len(rows) != n_cycles or not all(math.isfinite(float(r[1])) for r in rows):
                problems.append("hi_top.csv: wrong length or non-finite indicator")
            if ref is not None:
                if header[1] != ref["hi"]:
                    problems.append(f"chose {header[1]}, reference chose {ref['hi']}")
                if any(abs(coeffs[k] - v) > COEFF_ATOL for k, v in ref["coefficients"].items()):
                    problems.append(f"coefficients differ from reference by more than {COEFF_ATOL}")
            elif abs(coeffs[top]) < MIN_TOP_COEFF:
                problems.append(f"top coefficient {coeffs[top]!r} below {MIN_TOP_COEFF}")
            return problems

        ops.append(Op(
            label=f"cell{cell}",
            calls=lambda out, jobs, dataset=dataset: [
                ["extract", "--dataset", str(dataset), "--out", str(out / "extract")]
            ],
            check=lambda out, check=check: check(out / "extract"),
            reference=_extract_reference,
        ))
    return ops


def _extract_reference(out: Path) -> dict:
    _, corr = read_table(out / "extract" / "correlation.csv")
    header, _ = read_table(out / "extract" / "hi_top.csv")
    return {"hi": header[1], "coefficients": {r[0]: float(r[1]) for r in corr}}


# ---------------------------------------------------------------------------
# train-paper and hpo-desk: one generated cell's indicator table


def _hi_table(work: Path, seed: int, n_cycles: int) -> tuple[Path, int]:
    from sohpred import pipeline

    params = pipeline.CycleSynthesisParams(n_cycles=n_cycles)
    dataset = pipeline.synthesize_cycles(params, seed, work / "cell.csv")
    _cli_extract(dataset, work / "extract")
    return work / "extract" / "hi_top.csv", n_cycles


def _test_indices(n: int) -> list[int]:
    k = int(round(TRAIN_START_FRACTION * n))
    return list(range(k + WINDOW - 1, n))


# The paper's baseline network (pipeline.baseline_network/baseline_training)
# with fewer epochs: 40 instead of 500, the learning-rate drop kept at 70 %
# of the run.  Step cost, which is what the workload measures, is unchanged.
PAPER_NETWORK = {
    "network": {"gru_units": [128] * 4, "dropout_rates": [0.02] * 4},
    "training": {"max_epochs": 40, "learning_rate": 0.01, "lr_drop_period": 28,
                 "lr_drop_factor": 0.01, "batch_size": 16},
}
TOY_NETWORK = {
    "network": {"gru_units": [8] * 4, "dropout_rates": [0.02] * 4},
    "training": {"max_epochs": 2, "learning_rate": 0.01, "lr_drop_period": 1,
                 "lr_drop_factor": 0.01, "batch_size": 8},
}


def _prepare_train(work: Path, seed: int, toy: bool, reference: dict) -> list[Op]:
    table, n = _hi_table(work, seed, 40 if toy else 100)
    config = _write_config(work / "train.yaml", {"experiment": TOY_NETWORK if toy else PAPER_NETWORK})
    ref = reference.get("paper", {})

    def calls(out: Path, jobs: int) -> list[list[str]]:
        return [
            ["train", "--config", str(config), "--hi-table", str(table), "--out", str(out / "train")],
            ["predict", "--model", str(out / "train" / "model.bin"), "--hi-table", str(table),
             "--out", str(out / "predict")],
        ]

    def check(out: Path) -> list[str]:
        problems = check_report(out / "train" / "report.csv", _test_indices(n))
        problems += check_report(out / "predict" / "predictions.csv", list(range(WINDOW - 1, n)))
        for stage in ("train", "predict"):
            if not problems:
                (rmse,) = summary_rmse(out / stage)
                problems += check_rmse(stage, rmse, ref.get(stage), RMSE_CEILING)
        return problems

    def record(out: Path) -> dict:
        return {stage: summary_rmse(out / stage)[0] for stage in ("train", "predict")}

    return [Op("paper", calls, check, record)]


# A desk-sized search (30 fitness trainings) over a narrowed domain: where
# the search goes depends on the data, so the cost of a candidate must not,
# or the seed would set the workload's size.  Units stay at the bottom of
# the paper's range, where steps are bound by interpreter overhead; batch
# sizes 9-16 give every candidate two steps per epoch on the 17 fit windows.
# Learning rate and dropout keep the paper's bounds.
HPO_SEARCH = {"pop_size": 6, "max_iter": 4,
              "ranges": {"units": [25, 32], "epochs": [10, 12], "batch": [9, 16]}}
TOY_SEARCH = {"pop_size": 2, "max_iter": 1,
              "ranges": {"epochs": [1, 2], "units": [4, 8], "batch": [8, 20]}}
HPO_JOBS = 2  # fixed, not read from the host, so the workload is the same everywhere


def _prepare_hpo(work: Path, seed: int, toy: bool, reference: dict) -> list[Op]:
    table, n = _hi_table(work, seed, 40 if toy else 100)
    config = _write_config(work / "hpo.yaml", {"ssa": TOY_SEARCH if toy else HPO_SEARCH})

    def calls(out: Path, jobs: int) -> list[list[str]]:
        return [["hpo", "--config", str(config), "--jobs", str(jobs), "--hi-table", str(table),
                 "--out", str(out / "hpo")]]

    def check(out: Path) -> list[str]:
        problems = check_report(out / "hpo" / "report.csv", _test_indices(n))
        if not problems:
            (rmse,) = summary_rmse(out / "hpo")
            problems += check_rmse("hpo", rmse, reference.get("search", {}).get("hpo"), RMSE_CEILING)
        return problems

    def record(out: Path) -> dict:
        return {"hpo": summary_rmse(out / "hpo")[0]}

    return [Op("search", calls, check, record, jobs=HPO_JOBS)]


# ---------------------------------------------------------------------------
# fleet


FLEET_NETWORK = {
    "network": {"gru_units": [16] * 4, "dropout_rates": [0.02] * 4},
    "training": {"max_epochs": 150, "learning_rate": 0.01, "batch_size": 8},
}


def _prepare_fleet(work: Path, seed: int, toy: bool, reference: dict) -> list[Op]:
    from sohpred import pipeline

    n_vehicles, n_months, events = (3, 9, 3) if toy else (8, 16, 4)
    params = pipeline.FleetSynthesisParams(
        n_vehicles=n_vehicles, n_months=n_months, events_per_month=events
    )
    pipeline.synthesize_fleet(params, seed, work / "fleet")
    network = TOY_NETWORK if toy else FLEET_NETWORK
    config = _write_config(work / "fleet.yaml", {"experiment": network})
    vehicles = [f"V{v + 1:02d}" for v in range(1, n_vehicles)]  # V01 trains

    def calls(out: Path, jobs: int) -> list[list[str]]:
        return [["fleet", "--config", str(config), "--dataset", str(work / "fleet"),
                 "--out", str(out / "fleet")]]

    def check(out: Path) -> list[str]:
        fleet = out / "fleet"
        _, monthly = read_table(fleet / "monthly.csv")
        problems = []
        for vid in vehicles:
            months = sum(1 for r in monthly if r[0] == vid)
            expected = list(range(FLEET_START_MONTH + WINDOW - 1, months))
            problems += check_report(fleet / f"fleet_{vid}_report.csv", expected)
        if not problems:
            rmses = summary_rmse(fleet)
            if len(rmses) != len(vehicles):
                problems.append(f"summary.csv has {len(rmses)} vehicles, expected {len(vehicles)}")
            else:
                mean = sum(rmses) / len(rmses)
                problems += check_rmse("fleet", mean, reference.get("fleet", {}).get("fleet"),
                                      FLEET_RMSE_CEILING)
        return problems

    def record(out: Path) -> dict:
        rmses = summary_rmse(out / "fleet")
        return {"fleet": sum(rmses) / len(rmses)}

    return [Op("fleet", calls, check, record)]


# ---------------------------------------------------------------------------


# Each entry makes a workload's inputs from the seed under a work directory
# and returns its operations: (work dir, seed, toy sizes, reference values of
# this seed by op label) -> ops.  Why each workload exists is in BENCHMARK.json.
WORKLOADS: dict[str, Callable[[Path, int, bool, dict], list[Op]]] = {
    "extract-lab": _prepare_extract,
    "train-paper": _prepare_train,
    "hpo-desk": _prepare_hpo,
    "fleet": _prepare_fleet,
}
