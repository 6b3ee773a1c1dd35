"""Smoke runs of the experiment scripts at toy sizes.

The scripts call the pipeline API directly (``train_and_predict``,
``fit_predictor``, ``run_hi_ablation``, ``run_fleet`` and the seed-mean
report's ``per_seed_rmse``), the network's step functions, or the CLI, so an API
change that breaks them shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sohpred

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, cwd, code=0):
    # the children import the same sohpred the suite imported
    src = str(Path(sohpred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == code, proc.stderr
    return proc.stdout.splitlines()


def table_rows(lines, first_column):
    """Lines after a table header whose first column is ``first_column``."""
    rows, in_table = [], False
    for line in lines:
        words = line.split()
        if words[:1] == [first_column]:
            in_table = True
        elif in_table and words:
            rows.append(words)
    return rows


@pytest.mark.parametrize(
    "script, args, first_column, n_rows",
    [
        ("run_starting_points.py",
         ["--cycles", 40, "--epochs", 2, "--units", 4, "--seeds", 2, "--fractions", 0.25, 0.5],
         "start", 2),
        ("run_hi_ablation.py", ["--cycles", 100, "--epochs", 2, "--seeds", 1], "split", 12),
        ("run_fleet_study.py",
         ["--vehicles", 3, "--months", 10, "--epochs", 2, "--starts", 2, "--keep", "fleet"],
         "vehicle", 3),  # V02, V03 and the mean line
        ("step_cost.py",
         ["--units", 2, 3, "--batches", 1, 2, "--steps", 2], "units", 4),
        ("cli_peak.py", ["-n", 2, "--", "synth", "--out", "synth"], "run", 3),  # 2 runs, the medians
    ],
)
def test_script_prints_its_table(tmp_path, script, args, first_column, n_rows):
    rows = table_rows(run_script(script, *args, cwd=tmp_path), first_column)
    assert len(rows) == n_rows, rows


def test_cli_peak_stops_at_a_failed_call(tmp_path):
    lines = run_script("cli_peak.py", "-n", 3, "--", "extract", "--out", "x", cwd=tmp_path, code=1)
    assert len(lines) == 1  # the header only


def test_cli_peak_prints_cpu_time(tmp_path):
    lines = run_script("cli_peak.py", "-n", 2, "--", "synth", "--out", "synth", cwd=tmp_path)
    header = lines[0].split()
    assert header == ["run", "wall_s", "cpu_s", "peak_rss_mb", "minflt"]
    rows = table_rows(lines, "run")
    assert [row[0] for row in rows] == ["1", "2", "median"]
    for row in rows:
        cpu = float(row[header.index("cpu_s")])
        assert 0.0 < cpu, row
        assert 0 < int(row[header.index("minflt")]), row
