"""Approximation schemes: recursive separation with boundary discarding.

Packing drops the boundary class outright and unions the two sides'
solutions; piercing covers the boundary with greedy points and recurses on
what is left.  Once the greedy estimate falls under the stop threshold the
exact solver takes over, so each level loses at most the (small) boundary
measure and the overall ratio follows.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .candidates import coverage_masks
from .instances import Instance
from .measure import greedy_pack, greedy_pierce, mask_to_ids
from .separator import SeparatorResult, separate
from .solver import Solution, SolveConfig, solve_pack, solve_pierce


@dataclass
class PtasConfig:
    epsilon: float = 0.25
    c_stop: float = 3.0
    solve: SolveConfig = field(default_factory=SolveConfig)

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")

    def stop_threshold(self, d: int) -> int:
        # d=2 with c_stop=1 recovers the classic (1/eps)^2 stop rule.
        return max(int(math.ceil((self.c_stop / self.epsilon) ** d)), 1)


def _sub_instance(inst: Instance, ids: Sequence[int]) -> Instance:
    return Instance(
        dim=inst.dim,
        objects=tuple(inst.objects[i] for i in ids),
        label=inst.label,
        seed=inst.seed,
    )


def _drop_boundary(objs, sep: SeparatorResult) -> Tuple[int, list, set]:
    """Packing: drop the boundary class; no object of either side is lost."""
    return len(sep.boundary_ids), [], set()


def _cover_boundary(objs, sep: SeparatorResult) -> Tuple[int, list, set]:
    """Piercing: pierce the boundary class greedily; every object those
    points pierce, on either side, is done."""
    bp = greedy_pierce([objs[j] for j in sep.boundary_ids])
    points = list(bp.witness)
    covered = 0
    for mask in coverage_masks(objs, points):
        covered |= mask
    return bp.value, points, set(mask_to_ids(covered))


def _ptas(inst: Instance, cfg: PtasConfig, problem: str, estimate, exact, boundary_step) -> Solution:
    """Shared recursion of both schemes.

    A part whose `estimate` is under the stop threshold, or whose separator
    is unbalanced, is closed by `exact`.  Otherwise `boundary_step(objs,
    sep)` pays for the boundary class and returns (cost, points, covered):
    `cost` adds to `discarded`, `points` join the witness, and `covered`
    local ids leave both sides before the recursion.
    """
    start = time.perf_counter()
    stop = cfg.stop_threshold(inst.dim)
    discarded = 0
    nodes = 0
    max_depth = 0
    aborted = False

    def rec(ids: List[int], depth: int) -> Tuple[int, list]:
        nonlocal discarded, nodes, max_depth, aborted
        nodes += 1
        max_depth = max(max_depth, depth)
        if not ids:
            return 0, []
        sub = _sub_instance(inst, ids)
        objs = list(sub.objects)
        sep = None
        if estimate(objs).value > stop and len(ids) >= 2:
            sep = separate(objs, cfg.solve.separator_config())
        if sep is None or sep.unbalanced(cfg.solve.balance_cap):
            sol = exact(sub, cfg.solve)
            nodes += sol.nodes
            aborted |= sol.aborted
            if problem == "pack":
                return sol.value, [ids[j] for j in sol.witness]
            return sol.value, list(sol.witness)
        cost, points, covered = boundary_step(objs, sep)
        discarded += cost
        vin, win = rec([ids[j] for j in sep.inside_ids if j not in covered], depth + 1)
        vout, wout = rec([ids[j] for j in sep.outside_ids if j not in covered], depth + 1)
        return len(points) + vin + vout, points + win + wout

    value, witness = rec(list(range(inst.n)), 0)
    return Solution(
        problem=problem,
        value=value,
        witness=sorted(witness) if problem == "pack" else witness,
        nodes=nodes,
        depth=max_depth,
        wall_time=time.perf_counter() - start,
        optimal=discarded == 0 and not aborted,
        aborted=aborted,
        discarded=discarded,
    )


def ptas_pack(inst: Instance, cfg: Optional[PtasConfig] = None) -> Solution:
    """(1 - eps)-approximate packing; witness is always feasible.

    `discarded` counts the boundary objects dropped, the realized loss to
    compare against eps/3.
    """
    return _ptas(inst, cfg or PtasConfig(), "pack", greedy_pack, solve_pack, _drop_boundary)


def ptas_pierce(inst: Instance, cfg: Optional[PtasConfig] = None) -> Solution:
    """(1 + eps)-approximate piercing; witness always pierces everything.

    `discarded` counts the greedy points spent on boundary classes.
    """
    return _ptas(
        inst, cfg or PtasConfig(), "pierce", greedy_pierce, solve_pierce, _cover_boundary
    )
