"""Measure the empirical constants frozen in fatsep.calibration.

Runs fixed-seed sweeps and prints both the raw worst-case ratios and the
padded values to hardcode.  Protocol:

* pack ratio   : worst exact/greedy over 200 seeds x n in {8, 12, 18},
                 per (shape, dim), padded by 1.25x.
* pierce ratio : worst greedy/exact over 200 seeds x n in {6, 10, 12},
                 per supported (shape, dim), padded by 1.25x.
* boundary coeff: worst mu_boundary / p^((d-1)/d) on grid instances with
                 k in {3, 4, 5}, padded by 1.5x, floored at 1.0; the held-out
                 sizes k in {6..10} (d=2) and {6, 7} (d=3) are verified
                 against the padded value before it is accepted.
* node exponent: worst log(nodes) / (log n * sqrt(p)) on d=2 grids with
                 p in {4, 9}, padded by 1.5x; held-out p in {16, 25} verified.
"""
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fatsep.instances import gen_instance
from fatsep.measure import greedy_pack, greedy_pierce
from fatsep.oracle import brute_pack, brute_pierce
from fatsep.separator import separate
from fatsep.solver import SolveConfig, solve_pack

SEEDS = 200


def calibrate_pack():
    out = {}
    for shape, d in (("ball", 2), ("box", 2), ("ball", 3), ("box", 3)):
        worst = 1.0
        for n in (8, 12, 18):
            for seed in range(SEEDS):
                inst = gen_instance("random", d, shape=shape, n=n, seed=seed)
                g = greedy_pack(list(inst.objects)).value
                b = brute_pack(inst).value
                if g:
                    worst = max(worst, b / g)
        out[(shape, d)] = worst
    return out


def calibrate_pierce():
    out = {}
    for shape, d in (("ball", 2), ("box", 2), ("box", 3)):
        worst = 1.0
        for n in (6, 10, 12):
            for seed in range(SEEDS):
                inst = gen_instance("random", d, shape=shape, n=n, seed=seed)
                g = greedy_pierce(list(inst.objects)).value
                b = brute_pierce(inst).value
                if b:
                    worst = max(worst, g / b)
        out[(shape, d)] = worst
    return out


def boundary_ratio(d, k):
    inst = gen_instance("grid", d, k=k, seed=k)
    sep = separate(list(inst.objects))
    p = k**d
    return sep.mu_boundary.value / p ** ((d - 1) / d)


def calibrate_boundary():
    out = {}
    for d, fit_ks, check_ks in ((2, (3, 4, 5), range(6, 11)), (3, (3, 4, 5), (6, 7))):
        worst = max(boundary_ratio(d, k) for k in fit_ks)
        coeff = max(1.0, 1.5 * worst)
        for k in check_ks:
            r = boundary_ratio(d, k)
            assert r <= coeff, f"held-out d={d} k={k}: ratio {r} exceeds {coeff}"
        out[d] = (worst, coeff)
    return out


def node_exponent(p):
    k = int(round(math.sqrt(p)))
    inst = gen_instance("grid", 2, k=k, seed=k)
    sol = solve_pack(inst, SolveConfig())
    assert sol.optimal and sol.value == p
    n = inst.n
    if sol.nodes <= 1 or n <= 1:
        return 0.0
    return math.log(sol.nodes) / (math.log(n) * math.sqrt(p))


def calibrate_nodes():
    worst = max(node_exponent(p) for p in (4, 9))
    kexp = max(0.25, 1.5 * worst)
    for p in (16, 25):
        e = node_exponent(p)
        assert e <= kexp, f"held-out p={p}: exponent {e} exceeds {kexp}"
    return worst, kexp


def main():
    t0 = time.time()
    pack = calibrate_pack()
    print("# pack exact/greedy worst ratios (pad 1.25x):")
    for key, v in sorted(pack.items()):
        print(f"    {key}: raw={v:.4f}  frozen={1.25 * v:.4f}")
    pierce = calibrate_pierce()
    print("# pierce greedy/exact worst ratios (pad 1.25x):")
    for key, v in sorted(pierce.items()):
        print(f"    {key}: raw={v:.4f}  frozen={1.25 * v:.4f}")
    bnd = calibrate_boundary()
    print("# separator boundary coefficients (pad 1.5x, floor 1.0):")
    for d, (raw, coeff) in sorted(bnd.items()):
        print(f"    d={d}: raw={raw:.4f}  frozen={coeff:.4f}")
    raw_k, kexp = calibrate_nodes()
    print(f"# node law exponent: raw={raw_k:.4f}  frozen={kexp:.4f}")
    print(f"# elapsed {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
