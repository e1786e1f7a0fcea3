#!/usr/bin/env python3
"""fatsep benchmark: exact packing, exact piercing and the PTAS, timed from outside.

Run from the repository root:

    python3 perfbench/run.py --workload pack-exact --seed 1 --seconds 30 --trace 0

One process, one closed-loop client: each solve starts when the previous one
ends.  The workload's instance mix is built from `--seed` (see `mix.py`),
sized so that PASSES passes over it took about `--seconds` at the machine's
slow speed when the benchmark was defined.  The work is fixed rather than
the time, so a faster or slower program is measured on the same solves.
Each solve's wall time is scaled to a reference machine speed by a fixed
pure-Python loop timed just before and after it; each instance's solve time
is the best of its passes, and the timing metrics are taken over these
per-instance times.  Every solution is checked after
the timed passes.

`--trace 0` prints the end-to-end metrics.  `--trace 1` solves each case of
the mix once untraced and once traced, prints per-layer metrics and the
tracing overhead, checks that both solves agree, and writes the spans and
the counts under `perfbench/out/`.  A later traced run with the same
seed, length and code must repeat every count exactly.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and `metrics` (name -> value and unit).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
# The machine's speed moves in phases of seconds to minutes (a fixed loop ran
# 26-53 ms from one second to the next; pack-exact runs of the same mix read
# 32.6-48.4 instances/s within four minutes).  Every solve is therefore timed
# against a fixed pure-Python loop run just before and just after it (see
# solve_all), and every case is solved once per pass with its time taken as
# the best of its passes.
PASSES = 3
GAUGE_LOOPS = 100_000
TAIL_ABOVE = 10  # instances that must lie above the reported tail percentile


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_fatsep():
    """Import `fatsep` from this checkout's `src/`, never from elsewhere."""
    pkg = ROOT / "src" / "fatsep"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from a fatsep checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import fatsep

    if Path(fatsep.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported fatsep from {fatsep.__file__}, not {pkg}")


def gauge() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed."""
    t = time.perf_counter()
    x = 0
    for i in range(GAUGE_LOOPS):
        x += i
    return time.perf_counter() - t


def at_reference_speed(seconds: float, gauge_s: float, mix) -> float:
    """Scale a wall time measured while the gauge read `gauge_s` to the
    speed at which the gauge reads the spec's reference value."""
    return seconds * mix.SPEC["gauge_reference_s"] / gauge_s


def solve_all(cases, mix, run_one=None):
    """Solve each case once, in order: (case, seconds, solution, error) rows.

    `seconds` is the solve's wall time at reference speed, scaled by the mean
    of the gauge readings just before and just after it.
    """
    rows = []
    before = gauge()
    for case in cases:
        t = time.perf_counter()
        try:
            sol = run_one(case) if run_one else mix.solve(case)
            err = None
        except Exception as exc:  # a failed solve is counted, not fatal
            sol, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        after = gauge()
        rows.append((case, at_reference_speed(dt, (before + after) / 2, mix), sol, err))
        before = after
    return rows


def verify(rows, mix, greedy):
    """Check every row; also that solves of the same case agree exactly.

    Returns the number of failed rows, the indices of cases with a failed
    row, and the value and nodes of each case's first good solve.
    """
    failed = 0
    bad = set()
    first = {}
    for case, _, sol, err in rows:
        if err is None:
            err = mix.check(case, sol, greedy[case.index])
        if err is None:
            got = (sol.value, sol.nodes)
            err = None if first.setdefault(case.index, got) == got else (
                f"repeat solve gave value, nodes {got}, first {first[case.index]}"
            )
        if err is not None:
            failed += 1
            bad.add(case.index)
            print(f"FAIL case {case.index} {case.inst.label}: {err}", file=sys.stderr)
    return failed, bad, first


def tail(times):
    """Highest percentile with TAIL_ABOVE times above it: (value, pct, n).

    With TAIL_ABOVE or fewer times there is no such percentile; the maximum
    stands in for it.
    """
    ts = sorted(times)
    n = len(ts)
    if n <= TAIL_ABOVE:
        return ts[-1], 100.0, n
    k = n - TAIL_ABOVE  # the k-th smallest has TAIL_ABOVE solves above it
    return ts[k - 1], 100.0 * k / n, n


def value_ratio(mix, case, value, greedy):
    """Solution value against greedy, oriented so higher is better."""
    return value / greedy if case.stratum.problem in mix.PACKING else greedy / value


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fatsep").glob("*.py")) + sorted(HERE.glob("*.py")) + [HERE / "spec.json"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> str:
    import numpy

    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"{os.cpu_count()} cpus, {platform.machine()}"
    )


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_timed(args, mix, cases, setup_s):
    rows = []
    start = time.perf_counter()
    for _ in range(PASSES):
        rows += solve_all(cases, mix)
    wall = time.perf_counter() - start

    greedy = {c.index: mix.greedy_value(c) for c in cases}
    failed, bad, first = verify(rows, mix, greedy)
    best = {}
    for case, dt, _, _ in rows:
        best[case.index] = min(dt, best.get(case.index, dt))
    times = list(best.values())
    tail_s, tail_pct, n = tail(times)
    ratios = [value_ratio(mix, c, first[c.index][0], greedy[c.index]) for c in cases if c.index in first]
    correct = failed == 0 and guard_discarded(args.workload, rows)

    print(f"environment: {environment()}")
    print(f"mix: {len(cases)} instances, {len(rows)} solves in {wall:.2f} s of wall time")
    print(f"best-of-{PASSES} times at reference speed sum to {sum(times):.2f} s")
    print(f"oracle-checked instances: {sum(c.reference is not None for c in cases)}")
    print(f"solve_s_tail is p{tail_pct:.1f} of {n} instances")
    metrics = {
        "instances_per_s": metric((len(cases) - len(bad)) / sum(times), "1/s"),
        "solve_s_p50": metric(statistics.median(times), "s"),
        "solve_s_tail": metric(tail_s, "s"),
        "verified_ratio": metric((len(rows) - failed) / len(rows), "ratio"),
        "ptas_value_ratio": metric(statistics.fmean(ratios) if ratios else 0.0, "ratio"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }
    return correct, len(rows), failed, metrics


def guard_discarded(workload, rows) -> bool:
    """ptas-large degenerates into the exact solver when nothing is discarded."""
    if workload != "ptas-large":
        return True
    discarded = sum(sol.discarded for _, _, sol, _ in rows if sol is not None)
    if discarded == 0:
        print("FAIL ptas-large: ptas.discarded is 0", file=sys.stderr)
    return discarded > 0


def run_traced(args, mix, cases):
    import tracing

    tracer = tracing.Tracer()
    plain, traced = [], []
    # Each case runs untraced and then traced, back to back, so that warm-up
    # and drift weigh on both sides of the overhead ratio alike.
    for case in cases:
        plain += solve_all([case], mix)
        tracer.install()
        try:
            traced += solve_all([case], mix, lambda c: tracer.run_solve(c.index, mix.solve, c))
        finally:
            tracer.uninstall()
    plain_s = sum(dt for _, dt, _, _ in plain)
    traced_s = sum(dt for _, dt, _, _ in traced)

    greedy = {c.index: mix.greedy_value(c) for c in cases}
    failed, _, _ = verify(plain + traced, mix, greedy)
    layer = tracer.metrics()
    layer["bench.trace_overhead"] = traced_s / plain_s

    correct = failed == 0 and guard_discarded(args.workload, traced)
    guards = {
        "pierce-exact": ("ptas was called", tracer.layer_calls("ptas.") > 0),
        "pack-exact": ("candidates were called", tracer.layer_calls("candidates.") > 0),
    }
    if args.workload in guards and guards[args.workload][1]:
        print(f"FAIL {args.workload}: {guards[args.workload][0]}", file=sys.stderr)
        correct = False

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{args.seconds:g}s"
    tracer.write_spans(OUT / f"spans-{tag}.json")
    counts = {
        "layer": {k: v for k, v in layer.items() if not k.endswith("_s") and k != "bench.trace_overhead"},
        "cases": [[c.index, sol.value, sol.nodes] for c, _, sol, _ in traced if sol is not None],
    }
    counts_path = OUT / f"counts-{tag}-{code_digest()}.json"
    if counts_path.exists():
        before = json.loads(counts_path.read_text())
        if before != counts:
            diff = sorted(k for k in counts["layer"] if before["layer"].get(k) != counts["layer"][k])
            print(f"FAIL counts differ from {counts_path.name}: {diff or 'cases'}", file=sys.stderr)
            correct = False
        else:
            print(f"counts repeat {counts_path.name}")
    else:
        counts_path.write_text(json.dumps(counts, sort_keys=True))

    print(f"environment: {environment()}")
    print(f"traced {len(cases)} instances; overhead x{layer['bench.trace_overhead']:.2f}")
    metrics = {k: metric(v, unit_of(k)) for k, v in layer.items()}
    return correct, len(plain) + len(traced), failed, metrics


def unit_of(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(("_ratio", "_frac", "trace_overhead")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    gauge_before = gauge()
    t0 = time.perf_counter()
    import_fatsep()
    import mix

    if args.workload not in mix.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {sorted(mix.WORKLOADS)}")
    import_s = time.perf_counter() - t0

    setup_times = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t = time.perf_counter()
        cases = mix.build(args.workload, args.seed, args.seconds)
        setup_times.append(time.perf_counter() - t)
    setup_s = at_reference_speed(
        import_s + statistics.median(setup_times), (gauge_before + gauge()) / 2, mix
    )

    if args.trace:
        correct, attempted, failed, metrics = run_traced(args, mix, cases)
    else:
        correct, attempted, failed, metrics = run_timed(args, mix, cases, setup_s)
    for name, m in metrics.items():
        value = m["value"]
        print(f"{name} = {value if isinstance(value, int) else f'{value:.6g}'} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
