"""Node-count scaling report on the grid benchmark family.

Runs the exact pack and pierce solvers on d=2 grids of growing size, emits
the bench CSV, and prints the fitted node-law exponent per row, i.e. the K
solving nodes = n^(K * sqrt(p)).  Compare against the frozen
NODE_LAW_EXPONENT in fatsep.calibration.

Usage: python scripts/scaling_report.py [out.csv]
"""
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fatsep.bench import run_bench, to_csv
from fatsep.calibration import NODE_LAW_EXPONENT


def main():
    # Grids from k=3: a grid's objects are pairwise disjoint, so its root is
    # a component node that closes them in batches of greedy estimate at
    # most base_threshold 3.  k=3 takes 4 nodes against a bound of 5.2;
    # k=2 takes 3 (the root and two batches) against a bound of 2.
    suite = [
        {
            "family": "grid",
            "d": 2,
            "k": k,
            "seed": k,
            "label": f"grid-k{k}",
            "solvers": ["pack", "pierce"],
            "config": {"base_threshold": 3},
        }
        for k in (3, 4, 5, 6, 7)
    ]
    records = run_bench(suite, sys.argv[1] if len(sys.argv) > 1 else None)
    print(to_csv(records), end="")
    print(f"\n# frozen node-law exponent K = {NODE_LAW_EXPONENT}")
    for r in records:
        if r.nodes > 1 and r.n > 1:
            fitted = math.log(r.nodes) / (math.log(r.n) * math.sqrt(r.value))
        else:
            fitted = 0.0
        print(f"# {r.label} {r.solver}: nodes={r.nodes} fitted K={fitted:.4f}")


if __name__ == "__main__":
    main()
