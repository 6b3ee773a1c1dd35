"""Self-test of the benchmark at toy sizes (about a minute on two cores).

    python3 -m pytest benchmarks -q

It lives outside ``tests/`` so the package's own suite stays as fast as it
was; it runs every workload untraced and traced, from a directory other
than the repository root.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
from run import _same_files  # noqa: E402
from workloads import WORKLOADS, check_rmse  # noqa: E402


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def _bench(run_py: Path, cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(run_py), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace, tmp_path):
    done = _bench(BENCH / "run.py", tmp_path, "--workload", workload, "--seed", "0",
                  "--seconds", "0", "--trace", trace, "--toy")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    assert "# provenance " in done.stdout


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = _bench(tmp_path / BENCH.name / "run.py", tmp_path, "--workload", "fleet", "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_output_checks_flag_differences(tmp_path):
    assert check_rmse("train", 0.1, 0.1, 1.0) == []
    assert check_rmse("train", 0.2, 0.1, 1.0)
    assert check_rmse("train", 2.0, None, 1.0)
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "same.csv").write_text("x\n")
    (tmp_path / "a" / "report.csv").write_text("1\n")
    (tmp_path / "b" / "report.csv").write_text("2\n")
    assert _same_files(tmp_path / "a", tmp_path / "b") == ["report.csv"]
