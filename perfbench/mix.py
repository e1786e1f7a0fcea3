"""Workload mixes, reference values and output checks.

A workload is a list of strata: one solver entry point on one instance
family at one size, with a fixed number of instances per run.  Exact solve
times are heavy-tailed in the instance seed (random balls d=2 take 0.02 s
at n=26 but up to 5 s at n=34 and 10 s at n=50), so a 30 s run stays steady
only with hundreds of small instances, and only if runs with different
`--seed` share most of them: each stratum has a pool of POOL_FACTOR times
its count, instance seeds 0..pool-1, and `--seed` picks which of the pool a
run solves and in what order.  The same seed gives the same mix.  The
strata and the reasons for their sizes are in spec.json.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from fatsep import measure, oracle, ptas, solver
from fatsep.geometry import contains_point, intersects
from fatsep.instances import Instance, gen_instance

SPEC = json.loads((Path(__file__).with_name("spec.json")).read_text())
# Stratum counts fill a run of this length at the machine's slow speed (half
# of it at its fast speed) with the code of the commit that defined them;
# other lengths scale the counts.
REFERENCE_SECONDS = SPEC["reference_seconds"]
POOL_FACTOR = SPEC["pool_factor"]
PTAS_CONFIG = ptas.PtasConfig(**SPEC["ptas_config"])


@dataclass(frozen=True)
class Stratum:
    problem: str  # solve_pack | solve_pierce | ptas_pack | ptas_pierce
    shape: str
    d: int
    n: int
    count: int


WORKLOADS: Dict[str, List[Stratum]] = {
    name: [Stratum(**st) for st in w["strata"]] for name, w in SPEC["workloads"].items()
}

PACKING = {"solve_pack", "ptas_pack"}
EXACT = {"solve_pack", "solve_pierce"}


@dataclass
class Case:
    index: int
    stratum: Stratum
    inst: Instance
    # Optimum from the brute-force oracle, summed over connected components;
    # None for the PTAS and when a component exceeds the oracle's size guard.
    reference: Optional[int]


def build(workload: str, seed: int, seconds: float) -> List[Case]:
    """The workload's instances in solve order, with reference values."""
    rng = random.Random(f"{workload}:{seed}")
    cases: List[Case] = []
    for st in WORKLOADS[workload]:
        k = max(1, round(st.count * seconds / REFERENCE_SECONDS))
        pool = math.ceil(k * POOL_FACTOR)
        for inst_seed in rng.sample(range(pool), k):
            inst = gen_instance("random", st.d, shape=st.shape, n=st.n, seed=inst_seed)
            ref = reference(st.problem, inst) if st.problem in EXACT else None
            cases.append(Case(0, st, inst, ref))
    rng.shuffle(cases)
    for i, case in enumerate(cases):
        case.index = i
    return cases


def components(objs) -> List[List[int]]:
    parent = list(range(len(objs)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(objs)):
        for j in range(i + 1, len(objs)):
            if intersects(objs[i], objs[j]):
                parent[root(i)] = root(j)
    groups: Dict[int, List[int]] = {}
    for i in range(len(objs)):
        groups.setdefault(root(i), []).append(i)
    return list(groups.values())


def reference(problem: str, inst: Instance) -> Optional[int]:
    """Exact optimum: both problems split over intersection components."""
    brute, guard = (
        (oracle.brute_pack, oracle.PACK_GUARD)
        if problem == "solve_pack"
        else (oracle.brute_pierce, oracle.PIERCE_GUARD)
    )
    total = 0
    for comp in components(inst.objects):
        if len(comp) > guard:
            return None
        sub = Instance(dim=inst.dim, objects=tuple(inst.objects[i] for i in comp))
        total += brute(sub).value
    return total


def solve(case: Case):
    """Call the case's entry point through its module, so tracing sees it."""
    problem = case.stratum.problem
    if problem in EXACT:
        return getattr(solver, problem)(case.inst)
    return getattr(ptas, problem)(case.inst, PTAS_CONFIG)


def greedy_value(case: Case) -> int:
    if case.stratum.problem in PACKING:
        return measure.greedy_pack(case.inst.objects).value
    return measure.greedy_pierce(list(case.inst.objects)).value


def check(case: Case, sol, greedy: int) -> Optional[str]:
    """None when the solution is feasible and its value is right, else why not.

    `greedy` is the case's greedy value: a lower bound on the packing optimum
    and an upper bound on the piercing optimum.
    """
    objs = case.inst.objects
    problem = case.stratum.problem
    if sol.value != len(sol.witness):
        return f"value {sol.value} != witness size {len(sol.witness)}"
    if problem in EXACT and not sol.optimal:
        return "aborted at the node cap"
    if problem in PACKING:
        ids = sol.witness
        if len(set(ids)) != len(ids) or not all(0 <= i < len(objs) for i in ids):
            return "witness ids repeat or fall outside the instance"
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                if intersects(objs[ids[a]], objs[ids[b]]):
                    return f"packed objects {ids[a]} and {ids[b]} intersect"
    else:
        for i, o in enumerate(objs):
            if not any(contains_point(o, p) for p in sol.witness):
                return f"object {i} is not pierced"
    if case.reference is not None and sol.value != case.reference:
        return f"value {sol.value} != oracle reference {case.reference}"
    if problem == "solve_pack" and sol.value < greedy:
        return f"value {sol.value} below the greedy packing {greedy}"
    if problem == "solve_pierce" and sol.value > greedy:
        return f"value {sol.value} above the greedy piercing {greedy}"
    return None
