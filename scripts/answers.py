"""Print the answers of one perfbench mix, one JSON line per case.

Builds the instance mix of `perfbench/mix.py` for a workload and seed,
solves each case once through the same entry point the benchmark calls, and
prints its index, label, problem, value, witness, nodes, depth, discarded,
optimal and aborted flags, and the `separate` result of the whole instance
under the solve's separator settings (box, base box, m_star, the inside,
outside and boundary ids and the four greedy measures), so a change to the
separator shows in the same diff.  No timing is printed, so two checkouts that
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
from fatsep import separator, solver  # noqa: E402


def separator_record(case):
    """The top-level split the case's solve computes, as JSON-ready lists."""
    ptas = case.stratum.problem.startswith("ptas")
    cfg = (mix.PTAS_CONFIG.solve if ptas else solver.SolveConfig()).separator_config()
    sep = separator.separate(list(case.inst.objects), cfg)
    return {
        "box": [sep.box.low, sep.box.high],
        "base_box": [sep.base_box.low, sep.base_box.high],
        "m_star": sep.m_star,
        "inside": sep.inside_ids,
        "outside": sep.outside_ids,
        "boundary": sep.boundary_ids,
        "mu": [m.value for m in (sep.mu_total, sep.mu_inside, sep.mu_outside, sep.mu_boundary)],
    }


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
            "separator": separator_record(case),
        }
        print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
