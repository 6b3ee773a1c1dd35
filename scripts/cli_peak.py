#!/usr/bin/env python3
"""Wall time, CPU time and peak resident memory of one sohpred CLI call, run N times.

    python scripts/cli_peak.py -n 5 -- extract --dataset cells.csv --out ext

Each run starts ``python -m sohpred.cli <args>`` as the child of this small
process, with its standard output discarded, and reads the child's peak
resident set size from ``os.wait4``.  Linux carries a process's peak across
``fork`` and ``exec``, so a child started from a large process reports at
least that process's size; this script imports nothing beyond the standard
library, so its own size (about 14 MB) stays below any CLI call's, and the
peak printed is the call's own.  ``sohpred`` is imported as the child finds
it, for example with ``src`` on ``PYTHONPATH``.  The CPU time is the
child's user and system time, also from ``os.wait4``: on a shared machine it
resolves changes that wall time does not.  Prints one row per run, then the
medians; exits 1 if a call fails.
"""

import argparse
import os
import statistics
import sys
import time


def run(call: list[str]) -> tuple[float, float, float, int]:
    """One child: wall seconds, CPU seconds, peak RSS in MB (``ru_maxrss`` is in KiB), exit code."""
    argv = [sys.executable, "-m", "sohpred.cli", *call]
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, argv, os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    _, status, usage = os.wait4(pid, 0)
    wall, cpu = time.perf_counter() - start, usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, os.waitstatus_to_exitcode(status)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-n", type=int, default=5, help="runs (default 5)")
    ap.add_argument("call", nargs="+", help="the sohpred arguments, after --")
    args = ap.parse_args()

    print(f"{'run':>6} {'wall_s':>8} {'cpu_s':>8} {'peak_rss_mb':>12}")
    walls, cpus, peaks = [], [], []
    for i in range(1, args.n + 1):
        wall, cpu, peak, code = run(args.call)
        if code != 0:
            print(f"sohpred {' '.join(args.call)} exited {code}", file=sys.stderr)
            return 1
        walls.append(wall)
        cpus.append(cpu)
        peaks.append(peak)
        print(f"{i:6d} {wall:8.3f} {cpu:8.3f} {peak:12.2f}", flush=True)
    medians = (statistics.median(x) for x in (walls, cpus, peaks))
    print("{:>6} {:8.3f} {:8.3f} {:12.2f}".format("median", *medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
