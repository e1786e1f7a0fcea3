"""Print the answers of one perfbench mix, one JSON line per case.

Builds the instance mix of `perfbench/mix.py` for a workload and seed,
solves each case once through the same entry point the benchmark calls, and
prints its index, label, problem, value, witness, nodes, depth, discarded,
optimal and aborted flags.  No timing is printed, so two checkouts that
give the same answers print the same bytes and compare with one `diff`.

Usage: python scripts/answers.py --workload W --seed S [--seconds 30]
"""
import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import mix  # noqa: E402  (perfbench/mix.py, read only)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(mix.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args(argv)
    for case in mix.build(args.workload, args.seed, args.seconds):
        sol = mix.solve(case)
        record = {
            "index": case.index,
            "label": case.inst.label,
            "problem": case.stratum.problem,
            "value": sol.value,
            "witness": sol.witness,
            "nodes": sol.nodes,
            "depth": sol.depth,
            "discarded": sol.discarded,
            "optimal": sol.optimal,
            "aborted": sol.aborted,
        }
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
