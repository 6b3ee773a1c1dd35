"""Span tracing of the sohpred layers, installed from outside the package.

Run as a script, this module is the traced counterpart of one ``sohpred``
CLI call: it imports ``sohpred.cli`` (timing the import), wraps every
public function of each layer module, calls ``cli.main`` in this process
and writes per-function span totals as JSON::

    python benchmarks/tracing.py STATS.json -- extract --dataset cell0.csv --out out

A wrapper replaces the module attribute and every ``from ... import`` copy
of the same function object in the other ``sohpred`` modules, so calls
inside a module and across modules both pass through it.  Nothing under
``src/`` changes.

Spans are folded into per-name totals as they close (training makes
hundreds of thousands of them), so memory stays flat.  ``layer_metrics``
turns the totals of one operation into the per-layer metrics named in
``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from pathlib import Path

LAYERS = ("ingest", "icfeatures", "hiselect", "neuralnet", "ssa", "pipeline", "cli")
SEARCH = "ssa.optimize"

# Facts read from a call's arguments at its span boundary, summed per name.
# They are cheap (no I/O), so they add nothing measurable to the parent's
# self time.
DETAILS = {
    "ingest.parse_cycle_file": lambda args: {"paths": [str(args[0])]},
    "ingest.parse_fleet_file": lambda args: {"paths": [str(args[0])]},
    "ingest.monthly_aggregate": lambda args: {"segments": len(args[0])},
    SEARCH: lambda args: {"evals": args[1].pop_size * (args[1].max_iter + 1)},
}


def _add(into: dict, key: str, value) -> None:
    """Sum a number or concatenate a list into ``into[key]``."""
    into[key] = into[key] + value if key in into else value


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


class _Frame:
    __slots__ = ("name", "start", "in_search", "children")

    def __init__(self, name: str, in_search: bool) -> None:
        self.name = name
        self.in_search = in_search
        self.children: list[tuple[float, float]] = []
        self.start = 0.0


class Tracer:
    """Per-function span totals: calls, time, self time and failures.

    Parents are tracked per thread.  A span opened on a worker thread with
    nothing open on that thread takes the innermost span open on the main
    thread as its parent: that is the span which submitted the work
    (``ssa.optimize`` for the thread pool behind ``--jobs``).  Self time is
    a span's duration minus the part of it that the union of its child
    spans covers, so parallel children are not counted twice.
    """

    def __init__(self) -> None:
        self.stats: dict[str, dict] = {}
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[_Frame] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[_Frame]:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        detail = DETAILS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            frame = _Frame(name, parent is not None and (parent.in_search or parent.name == SEARCH))
            stack.append(frame)
            ok = False
            frame.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.children.append((frame.start, end))
                self._record(frame, end, ok, detail(args) if detail else {})

        return traced

    def _record(self, frame: _Frame, end: float, ok: bool, detail: dict) -> None:
        duration = end - frame.start
        self_s = duration - covered(frame.children, frame.start, end)
        with self._lock:
            st = self.stats.setdefault(
                frame.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0, "ok_in_search": 0}
            )
            st["calls"] += 1
            st["s"] += duration
            st["self_s"] += self_s
            st["failed"] += not ok
            st["ok_in_search"] += ok and frame.in_search
            for key, value in detail.items():
                _add(st, key, value)


def install(tracer: Tracer) -> None:
    """Wrap every public function of every layer module, in place."""
    package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "sohpred" and m is not None]
    for layer in LAYERS:
        module = sys.modules[f"sohpred.{layer}"]
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            traced = tracer.wrap(f"{layer}.{attr}", fn)
            for other in package:
                for other_attr, value in list(vars(other).items()):
                    if value is fn:
                        setattr(other, other_attr, traced)


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(calls: list[dict], rows_of) -> dict[str, float]:
    """Per-layer metrics of one operation from the traced calls it made.

    ``calls`` holds the JSON record of each traced CLI call;
    ``rows_of(path)`` gives the number of data rows in an input file.
    Metrics of a layer the operation never enters are 0.
    """
    stats: dict[str, dict] = {}
    for call in calls:
        for name, st in call["stats"].items():
            into = stats.setdefault(name, {})
            for key, value in st.items():
                _add(into, key, value)

    def get(name: str, key: str = "s"):
        return stats.get(name, {}).get(key, 0)

    def layer_self(layer: str) -> float:
        return sum(st["self_s"] for name, st in stats.items() if name.startswith(layer + "."))

    m: dict[str, float] = {}
    for name in ("ingest.parse_cycle_file", "ingest.parse_fleet_file"):
        rows = sum(rows_of(p) for p in get(name, "paths") or ())
        m[f"{name}.s"] = get(name)
        m[f"{name}.rows"] = rows
        m[f"{name}.us_per_row"] = _ratio(get(name) * 1e6, rows)
    m["ingest.monthly_aggregate.s"] = get("ingest.monthly_aggregate")
    m["ingest.monthly_aggregate.segments"] = get("ingest.monthly_aggregate", "segments")
    for name in ("icfeatures.compute_ic_curve", "icfeatures.savitzky_golay",
                 "hiselect.hankel_svd_denoise", "neuralnet.network_forward",
                 "neuralnet.network_backward", "neuralnet.adam_step",
                 "neuralnet.train", "neuralnet.predict"):
        m[f"{name}.s"] = get(name)
        m[f"{name}.calls"] = get(name, "calls")
    for name in ("icfeatures.sweep_area_boundaries", "icfeatures.dimensionless_features",
                 "hiselect.rank_his", "neuralnet.load_model", "neuralnet.save_model",
                 SEARCH, "pipeline.train_and_predict", "pipeline.run_fleet",
                 "cli.build_manifest", "cli.read_hi_table"):
        m[f"{name}.s"] = get(name)
    m["neuralnet.step_ms"] = _ratio(get("neuralnet.train") * 1e3, get("neuralnet.adam_step", "calls"))
    m["neuralnet.train.failed"] = get("neuralnet.train", "failed")

    evals = get(SEARCH, "evals")
    completed = get("neuralnet.train", "ok_in_search")
    m["ssa.self_s"] = layer_self("ssa")
    m["ssa.evals"] = evals
    m["ssa.failed_evals"] = evals - completed
    m["ssa.useful_ratio"] = _ratio(completed, evals)
    m["ssa.evals_per_s"] = _ratio(evals, get(SEARCH))
    m["pipeline.self_s"] = layer_self("pipeline")
    m["cli.import_s"] = _ratio(sum(c["import_s"] for c in calls), len(calls))
    m["cli.self_s"] = layer_self("cli")
    return m


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracing.py STATS.json -- <sohpred arguments>", file=sys.stderr)
        return 2
    start = time.perf_counter()
    from sohpred import cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    main_start = time.perf_counter()
    rc = cli.main(argv[2:])
    main_s = time.perf_counter() - main_start
    Path(argv[0]).write_text(
        json.dumps({"import_s": import_s, "main_s": main_s, "rc": rc, "stats": tracer.stats})
    )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
