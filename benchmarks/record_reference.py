"""Record the reference values the benchmark's output checks compare against.

    python3 benchmarks/record_reference.py --seeds 0-15
    python3 benchmarks/record_reference.py --seeds 0 --toy

For each workload and seed this generates the inputs, runs every operation
once untraced, checks it against the stated ceilings, and stores the
values its check compares (RMSE, or extract's chosen indicator and
coefficients) in ``reference.json``, merged with what is there.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import REFERENCE, SRC, WORK_ROOT, Runner


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=_seeds, required=True, help="a seed or a range such as 0-15")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    size = "toy" if args.toy else "full"
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name, prepare in WORKLOADS.items():
        for seed in args.seeds:
            work = WORK_ROOT / f"reference-{name}-{seed}"
            work.mkdir(parents=True)
            try:
                ops = prepare(work / "inputs", seed, args.toy, {})
                runner = Runner(work)
                values = {}
                for i, op in enumerate(ops):
                    res = runner.run_op(op, work / f"op{i}", op.jobs)
                    if res.failed:
                        print(f"{name} seed {seed} {op.label}: {res.problems}", file=sys.stderr)
                        return 1
                    values[op.label] = op.reference(work / f"op{i}")
            finally:
                shutil.rmtree(work, ignore_errors=True)
            reference.setdefault(size, {}).setdefault(name, {})[str(seed)] = values
            print(name, seed, json.dumps(values), flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
