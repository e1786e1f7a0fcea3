"""Acceptance gate: eight quantitative criteria at pinned tolerances.

Each test prints one PASS/FAIL line to the real terminal (bypassing pytest
capture) so the gate's verdict is visible in any run log.  Tolerances are
frozen here and in fatsep.calibration; they must not be loosened to make a
run pass.
"""
import math
import subprocess
import sys

import pytest

from fatsep.calibration import (
    NODE_LAW_EXPONENT,
    PACK_GREEDY_RATIO,
    PIERCE_GREEDY_RATIO,
    SEPARATOR_BOUNDARY_COEFF,
    node_law_bound,
)
from fatsep.geometry import classify, contains_point, intersects, RegionClass
from fatsep.instances import gen_instance
from fatsep.measure import greedy_pack, greedy_pierce
from fatsep.oracle import brute_pack, brute_pierce, fine_grid_pierce
from fatsep.ptas import PtasConfig, ptas_pack, ptas_pierce
from fatsep.separator import separate
from fatsep.solver import SolveConfig, solve_pack, solve_pierce

SEEDS = 200


def _verdict(capsys, name, ok):
    with capsys.disabled():
        print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


# Criterion 7 consumes the exact/greedy pairs measured during criteria 1
# and 2, so each sweep runs once and both criteria read from these caches.
_pack_sweep_cache = {}
_pierce_sweep_cache = {}


def _pack_sweep():
    if _pack_sweep_cache:
        return _pack_sweep_cache
    cfg = SolveConfig()
    for shape, d in (("ball", 2), ("box", 2), ("ball", 3), ("box", 3)):
        rows = []
        for n in (8, 12, 18):
            for seed in range(SEEDS):
                inst = gen_instance("random", d, shape=shape, n=n, seed=seed)
                sol = solve_pack(inst, cfg)
                ref = brute_pack(inst).value
                g = greedy_pack(list(inst.objects)).value
                wit = [inst.objects[i] for i in sol.witness]
                feasible = len(wit) == sol.value and all(
                    not intersects(a, b)
                    for i, a in enumerate(wit)
                    for b in wit[i + 1 :]
                )
                rows.append((sol.value, ref, g, feasible))
        _pack_sweep_cache[(shape, d)] = rows
    return _pack_sweep_cache


def test_criterion_1_packing_oracle_equivalence(capsys):
    ok = True
    for rows in _pack_sweep().values():
        for value, ref, _g, feasible in rows:
            if value != ref or not feasible:
                ok = False
    _verdict(capsys, "1 packing oracle equivalence (2400 instances)", ok)


def _pierce_sweep():
    if _pierce_sweep_cache:
        return _pierce_sweep_cache
    cfg = SolveConfig()
    for shape, d in (("ball", 2), ("box", 2), ("box", 3)):
        rows = []
        for n in (6, 10, 12):
            for seed in range(SEEDS):
                inst = gen_instance("random", d, shape=shape, n=n, seed=seed)
                sol = solve_pierce(inst, cfg)
                ref = brute_pierce(inst).value
                g = greedy_pierce(list(inst.objects)).value
                feasible = all(
                    any(contains_point(o, p) for p in sol.witness)
                    for o in inst.objects
                )
                rows.append((sol.value, ref, g, feasible))
        _pierce_sweep_cache[(shape, d)] = rows
    return _pierce_sweep_cache


def test_criterion_2_piercing_oracle_equivalence(capsys):
    ok = True
    for rows in _pierce_sweep().values():
        for value, ref, _g, feasible in rows:
            if value != ref or not feasible:
                ok = False
    # candidate-point soundness against the fine-grid oracle
    for seed in range(100):
        shape = "ball" if seed % 2 == 0 else "box"
        inst = gen_instance("random", 2, shape=shape, n=8, seed=seed)
        if brute_pierce(inst).value != fine_grid_pierce(inst).value:
            ok = False
    _verdict(capsys, "2 piercing oracle equivalence (1800 + 100 fine-grid)", ok)


def test_criterion_3_separator_invariants(capsys):
    balanced = 0
    total = 0
    ok = True
    for d in (2, 3):
        for k in range(3, 11):
            inst = gen_instance("grid", d, k=k, seed=k)
            sep = separate(list(inst.objects))
            p = k**d
            total += 1
            if max(sep.box.sides) / min(sep.box.sides) > 2 + 1e-9:
                ok = False
            for i, o in enumerate(inst.objects):
                cls = classify(o, sep.box)
                want = (
                    RegionClass.INSIDE
                    if i in sep.inside_ids
                    else RegionClass.OUTSIDE
                    if i in sep.outside_ids
                    else RegionClass.BOUNDARY
                )
                if cls is not want:
                    ok = False
            if (
                max(sep.mu_inside.value, sep.mu_outside.value)
                <= 0.8 * sep.mu_total.value
            ):
                balanced += 1
            if sep.mu_boundary.value > SEPARATOR_BOUNDARY_COEFF[d] * p ** (
                (d - 1) / d
            ):
                ok = False
    if balanced < 0.95 * total:
        ok = False
    _verdict(capsys, "3 separator invariants (grids k=3..10, d=2,3)", ok)


def test_criterion_4_shell_claim(capsys):
    from test_separator import check_shell_claim, _sweep_claim_case

    exercised = 0
    violations = 0
    for seed in range(500):
        try:
            exercised += check_shell_claim(_sweep_claim_case(seed))
        except AssertionError:
            violations += 1
    ok = violations == 0 and exercised > 0
    _verdict(capsys, "4 shell claim: 500 sweeps, zero cross-shell overlaps", ok)


def test_criterion_5_node_count_law(capsys):
    ok = True
    fitted = []
    for p in (4, 9, 16, 25):
        k = int(round(math.sqrt(p)))
        inst = gen_instance("grid", 2, k=k, seed=k)
        sol = solve_pack(inst, SolveConfig())
        n = inst.n
        if not (sol.optimal and sol.value == p and n <= 200):
            ok = False
        if sol.nodes > node_law_bound(n, p, 2):
            ok = False
        if sol.nodes > 1 and n > 1:
            fitted.append(math.log(sol.nodes) / (math.log(n) * math.sqrt(p)))
    trend = ", ".join(f"{e:.3f}" for e in fitted) or "all single-node"
    with capsys.disabled():
        print(
            f"[ACCEPTANCE] 5 fitted node-law exponents (frozen K={NODE_LAW_EXPONENT}): {trend}"
        )
    _verdict(capsys, "5 node-count law on d=2 grids p=4,9,16,25", ok)


def test_criterion_6_ptas_ratios(capsys):
    ok = True
    for shape in ("ball", "box"):
        for seed in range(50):
            inst = gen_instance("random", 2, shape=shape, n=20, seed=seed)
            opt_pack = solve_pack(inst).value
            opt_pierce = solve_pierce(inst).value
            for eps in (0.5, 0.25):
                cfg = PtasConfig(epsilon=eps)
                psol = ptas_pack(inst, cfg)
                wit = [inst.objects[i] for i in psol.witness]
                if len(wit) != psol.value or any(
                    intersects(a, b)
                    for i, a in enumerate(wit)
                    for b in wit[i + 1 :]
                ):
                    ok = False
                if psol.value < (1 - eps) * opt_pack:
                    ok = False
                qsol = ptas_pierce(inst, cfg)
                if not all(
                    any(contains_point(o, pt) for pt in qsol.witness)
                    for o in inst.objects
                ):
                    ok = False
                if qsol.value > (1 + eps) * opt_pierce:
                    ok = False
    _verdict(capsys, "6 PTAS ratios (eps 0.5/0.25, 50 instances per shape)", ok)


def test_criterion_7_measure_sandwich(capsys):
    ok = True
    for (shape, d), rows in _pack_sweep().items():
        kappa = PACK_GREEDY_RATIO[(shape, d)]
        for _value, ref, g, _feasible in rows:
            if not (g <= ref <= kappa * max(g, 1)):
                ok = False
    for (shape, d), rows in _pierce_sweep().items():
        kappa = PIERCE_GREEDY_RATIO[(shape, d)]
        for _value, ref, g, _feasible in rows:
            if not (ref <= g <= kappa * ref):
                ok = False
    _verdict(
        capsys,
        "7 measure sandwich: greedy <= Pack <= kappa*greedy, "
        "Pierce <= greedy <= kappa*Pierce",
        ok,
    )


def _cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "fatsep.cli", *args], capture_output=True
    )
    return proc.returncode, proc.stdout


def test_criterion_8_determinism(capsys):
    ok = True
    with pytest.MonkeyPatch.context() as mp:
        import tempfile, os

        tmp = tempfile.mkdtemp()
        inst = os.path.join(tmp, "i.txt")
        rc, _ = _cli(
            ["gen", "--family", "cluster", "--dim", "2", "--clusters", "3",
             "--cluster-size", "4", "--seed", "11", "--out", inst]
        )
        ok &= rc == 0
        for args in (
            ["gen", "--family", "random", "--dim", "3", "--shape", "box",
             "--n", "12", "--seed", "4"],
            ["pack", "--in", inst, "--base-threshold", "3"],
            ["pierce", "--in", inst, "--base-threshold", "3"],
            ["separator", "--in", inst],
            ["ptas-pack", "--in", inst, "--epsilon", "0.5"],
        ):
            rc1, out1 = _cli(args)
            rc2, out2 = _cli(args)
            ok &= rc1 == rc2 == 0 and out1 == out2 and bool(out1)
        # bench reruns agree outside the wall_time column
        rc1, out1 = _cli(["bench", "--family", "grid", "--ks", "2,3,4"])
        rc2, out2 = _cli(["bench", "--family", "grid", "--ks", "2,3,4"])
        ok &= rc1 == rc2 == 0

        def strip_wall(raw):
            rows = [r.split(",") for r in raw.decode().splitlines()]
            for r in rows[1:]:
                r[8] = ""
            return rows

        ok &= strip_wall(out1) == strip_wall(out2)
    _verdict(capsys, "8 byte determinism of gen, solvers, separator and bench", ok)
