"""Benchmark of the sohpred CLI: one workload, one seed, one run.

    python3 benchmarks/run.py --workload extract-lab --seed 0 --seconds 20 --trace 0

With ``--trace 0`` every operation runs the real CLI in fresh interpreters
(``python -m sohpred.cli``) and the end-to-end metrics are reported: the
import cost every call pays (``setup_s``), the wall time of one operation
(``stage_s``) and the peak resident memory of the CLI processes
(``peak_rss_mb``).  With ``--trace 1`` each operation runs once untraced
and once under ``tracing.py``, which calls the same CLI in-process with
every layer function wrapped; the per-layer metrics, the tracing overhead
and (for hpo-desk) the ``--jobs 1`` baseline are reported.  The traced
run's output files must equal the untraced run's byte for byte.

Inputs are generated from ``--seed`` before anything is timed.  The last
line of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (counted in CLI calls) and ``metrics``.  The lines before it
give each metric's median, quartiles and sample count, the provenance of
the run, and each operation's time and the values its check compared.  Work files go under ``.bench_work/``
at the repository root and are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
REFERENCE = BENCH / "reference.json"
CALL_TIMEOUT_S = 150.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class OpResult:
    """What one execution of an operation's CLI chain produced."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)  # tracing.py records, traced runs only


class Runner:
    """Runs CLI calls as child processes with the package on PYTHONPATH."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ)
        # absolute, so the call's working directory cannot break the import
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        self.log = work / "calls.log"

    def call(self, argv: list[str]) -> tuple[float, float, int]:
        """Run one child to completion: (wall seconds, peak RSS in MB, exit code)."""
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=log, stderr=log)
            timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def import_time(self) -> float:
        wall, _, rc = self.call([sys.executable, "-c", "import sohpred.cli"])
        if rc != 0:
            raise RuntimeError(f"import sohpred.cli failed (exit {rc}); see {self.log}")
        return wall

    def run_op(self, op, out: Path, jobs: int, traced: bool = False) -> OpResult:
        """Run the op's calls in order; a failing call ends the chain."""
        res = OpResult()
        out.mkdir(parents=True)
        for i, argv in enumerate(op.calls(out, jobs)):
            if traced:
                stats = self.work / f"trace-{out.name}-{i}.json"
                cmd = [sys.executable, str(BENCH / "tracing.py"), str(stats), "--", *argv]
            else:
                cmd = [sys.executable, "-m", "sohpred.cli", *argv]
            wall, rss, rc = self.call(cmd)
            res.attempted += 1
            res.wall_s += wall
            res.peak_rss_mb = max(res.peak_rss_mb, rss)
            if rc != 0:
                res.failed += 1
                res.problems.append(f"sohpred {argv[0]} exited {rc}; see {self.log}")
                return res
            if traced:
                res.traces.append(json.loads(stats.read_text()))
                stats.unlink()
        res.problems = op.check(out)
        res.failed += bool(res.problems)
        return res


# ---------------------------------------------------------------------------
# provenance


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read without changing it."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() or None


def _src_sha256() -> str:
    """Content hash of the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sohpred").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# reporting


def _summary(values: list[float]) -> tuple[float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def _same_files(a: Path, b: Path) -> list[str]:
    """Relative paths whose bytes differ between two output trees."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diff = sorted(str(p) for p in files_a ^ files_b)
    diff += sorted(str(p) for p in files_a & files_b if (a / p).read_bytes() != (b / p).read_bytes())
    return diff


def _reference(size: str, workload: str, seed: int) -> dict:
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(size, {}).get(workload, {}).get(str(seed), {})


# ---------------------------------------------------------------------------


def _rounds(seconds: float):
    """Round numbers for about ``seconds``: a round starts only while at least
    half of a round of the mean length so far still fits."""
    start = time.perf_counter()
    i = 0
    while True:
        yield i
        i += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / i >= seconds:
            return


def measure(runner: Runner, ops, seconds: float) -> tuple[dict, OpResult, list[str]]:
    """Untraced run: import probes interleaved with operations."""
    setup, stage, rss = [], [], []
    total = OpResult()
    notes = []
    for i in _rounds(seconds):
        setup.append(runner.import_time())
        op = ops[i % len(ops)]
        out = runner.work / f"op{i}"
        res = runner.run_op(op, out, op.jobs)
        total.attempted += res.attempted
        total.failed += res.failed
        total.problems += [f"{op.label}: {p}" for p in res.problems]
        if not res.problems:
            stage.append(res.wall_s)
            rss.append(res.peak_rss_mb)
            notes.append(f"{op.label} {res.wall_s:.3f}s checked {json.dumps(op.reference(out))}")
        shutil.rmtree(out)
    series = {"setup_s": setup, "stage_s": stage, "peak_rss_mb": [max(rss)] if rss else []}
    return series, total, notes


def measure_traced(runner: Runner, ops, seconds: float) -> tuple[dict, OpResult, list[str]]:
    """Traced run: each operation untraced, then traced, then compared."""
    from tracing import layer_metrics

    rows: dict[str, int] = {}

    def rows_of(path: str) -> int:
        if path not in rows:
            with open(path, "rb") as fh:
                rows[path] = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
        return rows[path]

    series: dict[str, list[float]] = {}
    total = OpResult()
    notes = []
    for i in _rounds(seconds):
        op = ops[i % len(ops)]
        base = runner.work / f"op{i}"
        plain = runner.run_op(op, base / "plain", op.jobs)
        traced = runner.run_op(op, base / "traced", op.jobs, traced=True)
        results = [plain, traced]
        problems = plain.problems + traced.problems
        if not problems:
            differ = _same_files(base / "plain", base / "traced")
            if differ:
                problems.append(f"traced outputs differ from untraced: {', '.join(differ)}")
                traced.failed += 1
        speedup = 0.0
        if op.jobs > 1 and not problems:
            serial = runner.run_op(op, base / "serial", 1, traced=True)
            results.append(serial)
            problems += serial.problems
            for a in (base / "traced").rglob("report.csv"):
                b = base / "serial" / a.relative_to(base / "traced")
                if not b.is_file() or a.read_bytes() != b.read_bytes():
                    problems.append(f"--jobs 1 {a.name} differs from --jobs {op.jobs}")
                    serial.failed += 1
            speedup = sum(t["main_s"] for t in serial.traces) / sum(t["main_s"] for t in traced.traces)
        for r in results:
            total.attempted += r.attempted
            total.failed += r.failed
        total.problems += [f"{op.label}: {p}" for p in problems]
        if not problems:
            metrics = layer_metrics(traced.traces, rows_of)
            metrics["ssa.jobs_speedup"] = speedup
            metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
            for name, value in metrics.items():
                series.setdefault(name, []).append(value)
            notes.append(f"{op.label} untraced {plain.wall_s:.3f}s traced {traced.wall_s:.3f}s")
        shutil.rmtree(base)
    return series, total, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="how long to keep measuring")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="toy input sizes, for the self-test")
    args = ap.parse_args(argv)

    if not (SRC / "sohpred" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a sohpred checkout (needs src/sohpred and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    size = "toy" if args.toy else "full"

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        prov = provenance()
        ops = WORKLOADS[args.workload](
            work / "inputs", args.seed, args.toy, _reference(size, args.workload, args.seed)
        )
        runner = Runner(work)
        measure_fn = measure_traced if args.trace else measure
        series, total, notes = measure_fn(runner, ops, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.is_dir() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    print("# provenance " + json.dumps(prov, sort_keys=True))
    print(f"# workload {args.workload} ({size}) seed {args.seed} trace {args.trace}: "
          f"{total.attempted} CLI calls, {total.failed} failed")
    for note in notes:
        print(f"# op {note}")
    for problem in total.problems:
        print(f"# FAILED {problem}")
    metrics = {}
    for name in wanted:
        values = series.get(name, [])
        if not values:
            continue
        median, q1, q3 = _summary(values)
        print(f"# {name:40s} {median:14.6g} {units[name]:8s} q1 {q1:.6g} q3 {q3:.6g} n {len(values)}")
        metrics[name] = {"value": median, "unit": units[name]}
    correct = total.failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
