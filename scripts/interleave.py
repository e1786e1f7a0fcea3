"""Time this tree against another checkout in alternating processes.

Each pair runs one process per tree, the side that runs first swapped from
one pair to the next, so a slow phase of the machine falls on both sides
alike.  A process builds the instance mix of `perfbench/mix.py` for the
workload and seed (from its own tree, read only, as `scripts/answers.py`
reads it, at the benchmark's run length of 30 s), solves every case once
per pass through the mix's entry points, and reports the best of
`--passes` in-process passes, in milliseconds.  The script prints each
pair, how many pairs this tree won, the median of each side with the
other tree's interquartile range, and the median and quartiles of the
per-pair ratio this/other: a ratio within a pair cancels a slow phase of
the machine that a batch's medians keep.

Usage: python scripts/interleave.py --other DIR --workload W --seed S
           [--pairs 10] [--passes 5]
"""
import argparse
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 30.0  # the run length the mix is sized for, as in BENCHMARK.json


def best_pass_ms(tree: Path, workload: str, seed: int, passes: int) -> float:
    """Best of `passes` timed passes over the mix, with `tree`'s package
    and mix; run in a fresh process, so `tree` is what it imports."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import mix

    cases = mix.build(workload, seed, SECONDS)
    best = float("inf")
    for _ in range(passes):
        t = time.perf_counter()
        for case in cases:
            mix.solve(case)
        best = min(best, time.perf_counter() - t)
    return best * 1000


def quartiles(values):
    """First quartile, median and third quartile of `values`."""
    if len(values) == 1:
        return values * 3
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def run_side(tree: Path, args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--tree", str(tree),
           "--workload", args.workload, "--seed", str(args.seed), "--passes", str(args.passes)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return float(proc.stdout)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--other", type=Path, help="the checkout to compare against")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--passes", type=int, default=5)
    # One side of one pair: time the given tree and print the best pass.
    p.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.tree is not None:
        print(best_pass_ms(args.tree.resolve(), args.workload, args.seed, args.passes))
        return
    if args.other is None:
        p.error("--other is required")
    if args.pairs < 1 or args.passes < 1:
        p.error("--pairs and --passes must be at least 1")
    other = args.other.resolve()
    this_ms, other_ms = [], []
    for pair in range(args.pairs):
        order = [("this", ROOT), ("other", other)]
        if pair % 2:
            order.reverse()
        got = {side: run_side(tree, args) for side, tree in order}
        this_ms.append(got["this"])
        other_ms.append(got["other"])
        print(f"pair {pair + 1}: this {got['this']:.2f} ms, other {got['other']:.2f} ms, "
              f"{order[0][0]} first", flush=True)
    wins = sum(a < b for a, b in zip(this_ms, other_ms))
    print(f"this tree faster in {wins} of {args.pairs} pairs")
    q = quartiles(other_ms)
    r = quartiles([a / b for a, b in zip(this_ms, other_ms)])
    print(f"median: this {statistics.median(this_ms):.2f} ms, other {q[1]:.2f} ms "
          f"(other's quartiles {q[0]:.2f}-{q[2]:.2f} ms), "
          f"this/other per pair {r[1]:.3f} (quartiles {r[0]:.3f}-{r[2]:.3f})")


if __name__ == "__main__":
    main()
