#!/usr/bin/env python3
"""Wall time, CPU time, peak resident memory and page faults of one sohpred CLI call, run N times.

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
resolves changes that wall time does not.  So does the count of minor page
faults (``ru_minflt``), which shows memory that the allocator hands back to
the system and faults in again.  ``os.wait4`` also covers the workers that
the call forked and reaped (``hpo``, ``fleet``, and ``extract`` on a large
cell), so for such a call the peak printed is the largest of its
processes' peaks, and the CPU time and page faults are the sums of
theirs, not the main process's alone.  Prints one row per run, then the medians;
exits 1 if a call fails.
"""

import argparse
import os
import statistics
import sys
import time


def run(call: list[str]) -> tuple[float, float, float, int, int]:
    """One child: wall seconds, CPU seconds, peak RSS in MB (``ru_maxrss`` is in KiB),
    minor page faults and exit code."""
    argv = [sys.executable, "-m", "sohpred.cli", *call]
    start = time.perf_counter()
    pid = os.posix_spawn(
        sys.executable, argv, os.environ,
        file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
    )
    _, status, usage = os.wait4(pid, 0)
    wall, cpu = time.perf_counter() - start, usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, usage.ru_minflt, os.waitstatus_to_exitcode(status)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("-n", type=int, default=5, help="runs (default 5)")
    ap.add_argument("call", nargs="+", help="the sohpred arguments, after --")
    args = ap.parse_args()

    print(f"{'run':>6} {'wall_s':>8} {'cpu_s':>8} {'peak_rss_mb':>12} {'minflt':>8}")
    rows = []
    for i in range(1, args.n + 1):
        *row, code = run(args.call)
        if code != 0:
            print(f"sohpred {' '.join(args.call)} exited {code}", file=sys.stderr)
            return 1
        rows.append(row)
        print("{:6d} {:8.3f} {:8.3f} {:12.2f} {:8d}".format(i, *row), flush=True)
    medians = [statistics.median(column) for column in zip(*rows)]
    print("{:>6} {:8.3f} {:8.3f} {:12.2f} {:8.0f}".format("median", *medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
