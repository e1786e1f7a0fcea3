"""Exact packing and piercing by recursive separation.

Each solve builds one `IntersectionContext` and searches subproblems as
bitmasks over it.  Small subproblems (by greedy estimate) are closed
exactly; larger ones are split with a box separator, enumerating
independent sets (packing) or candidate pierce covers (piercing) of the
boundary class.  Unbalanced or degenerate separators fall back to pivot
branching, so termination and exactness never depend on separator quality.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import candidates as cand
from .geometry import Point, size
from .instances import Instance
from .measure import (
    IntersectionContext,
    exact_small_pierce,
    greedy_pack,
    greedy_pierce,
    mask_to_ids,
    prune_dominated,
)
from .separator import SeparatorConfig, SeparatorResult, separate


@dataclass
class SolveConfig:
    base_threshold: int = 12
    epsilon: float = 0.25
    node_cap: int = 10**8
    balance_cap: float = 0.8

    def __post_init__(self):
        if self.base_threshold < 1:
            raise ValueError("base_threshold must be >= 1")
        if self.node_cap < 1:
            raise ValueError("node_cap must be >= 1")

    def separator_config(self) -> SeparatorConfig:
        return SeparatorConfig(epsilon=self.epsilon, balance_cap=self.balance_cap)


@dataclass
class Solution:
    """Result of every solver, exact or approximate.

    `problem` is "pack" (witness: sorted object ids) or "pierce" (witness:
    points).  `optimal` means the value is proven optimal; `aborted` means
    some exact search hit the node cap and fell back to a greedy answer.
    `discarded` is the PTAS's boundary cost: objects dropped (packing) or
    greedy points spent (piercing).
    """

    problem: str
    value: int
    witness: list
    nodes: int
    depth: int
    wall_time: float
    optimal: bool = True
    aborted: bool = False
    discarded: int = 0


class _Budget:
    def __init__(self, cap: int):
        self.cap = cap
        self.count = 0

    def tick(self):
        self.count += 1
        if self.count > self.cap:
            raise _CapStop


class _CapStop(Exception):
    pass


def _global_mask(ids: Sequence[int], local_ids) -> int:
    """Mask over the solve's context of the local ids `local_ids`, where
    local id j stands for global id ids[j]."""
    mask = 0
    for j in local_ids:
        mask |= 1 << ids[j]
    return mask


class _Search:
    def __init__(self, ctx: IntersectionContext, cfg: SolveConfig, budget: _Budget):
        self.ctx = ctx
        self.cfg = cfg
        self.budget = budget
        self.sepcfg = cfg.separator_config()


class _PackSearch(_Search):
    def solve(self, mask: int) -> Tuple[int, List[int], int, int]:
        """Returns (value, witness ids, nodes, depth)."""
        self.budget.tick()
        if not mask:
            return 0, [], 1, 0
        g, _ = self.ctx.greedy_pack_mask(mask)
        if g <= self.cfg.base_threshold:
            value, chosen = self.ctx.exact_pack_mask(mask)
            return value, mask_to_ids(chosen), 1, 0
        ids = mask_to_ids(mask)
        sep = separate([self.ctx.objs[i] for i in ids], self.sepcfg)
        if sep.unbalanced(self.cfg.balance_cap):
            return self._pivot(mask, ids)
        return self._separated(ids, sep)

    def _pivot(self, mask, ids):
        # Max-degree pivot: Pack = max(Pack(C - o), 1 + Pack(C - N[o])).
        o = max(ids, key=lambda i: ((self.ctx.nbr[i] & mask).bit_count(), -i))
        skip = self.solve(mask & ~(1 << o))
        take = self.solve(mask & ~self.ctx.nbr[o])
        nodes = 1 + skip[2] + take[2]
        depth = 1 + max(skip[3], take[3])
        if 1 + take[0] >= skip[0]:
            return 1 + take[0], sorted(take[1] + [o]), nodes, depth
        return skip[0], skip[1], nodes, depth

    def _separated(self, ids, sep: SeparatorResult):
        inside = _global_mask(ids, sep.inside_ids)
        outside = _global_mask(ids, sep.outside_ids)
        boundary = _global_mask(ids, sep.boundary_ids)

        best = None
        nodes = 1
        depth = 0
        for chosen in self.ctx.independent_sets(boundary):
            nmask = 0
            for i in chosen:
                nmask |= self.ctx.nbr[i]
            rin = self.solve(inside & ~nmask)
            rout = self.solve(outside & ~nmask)
            nodes += rin[2] + rout[2]
            depth = max(depth, 1 + max(rin[3], rout[3]))
            value = len(chosen) + rin[0] + rout[0]
            if best is None or value > best[0]:
                best = (value, sorted(chosen + rin[1] + rout[1]))
        assert best is not None
        return best[0], best[1], nodes, depth


class _PierceSearch(_Search):
    def solve(self, mask: int) -> Tuple[int, List[Point], int, int]:
        self.budget.tick()
        if not mask:
            return 0, [], 1, 0
        ids = mask_to_ids(mask)
        sub = [self.ctx.objs[i] for i in ids]
        g = greedy_pierce(sub).value
        if g <= self.cfg.base_threshold:
            # greedy_pierce is feasible, so the optimum fits under g.
            res = exact_small_pierce(sub, g)
            return res.value, list(res.witness), 1, 0
        sep = separate(sub, self.sepcfg)
        if sep.unbalanced(self.cfg.balance_cap):
            return self._pivot(mask, ids, sub)
        return self._separated(ids, sub, sep)

    def _pivot(self, mask, ids, sub):
        # Branch over candidate points inside the smallest object.
        points = cand.candidate_pierce_points(sub)
        cov_local = cand.coverage_masks(sub, points)
        o_local = min(range(len(sub)), key=lambda j: (size(sub[j]), j))
        best = None
        nodes = 1
        depth = 0
        for k, p in enumerate(points):
            if not cov_local[k] & (1 << o_local):
                continue
            r = self.solve(mask & ~_global_mask(ids, mask_to_ids(cov_local[k])))
            nodes += r[2]
            depth = max(depth, 1 + r[3])
            value = 1 + r[0]
            if best is None or value < best[0]:
                best = (value, [p] + r[1])
        assert best is not None, "candidate set must pierce the pivot object"
        return best[0], best[1], nodes, depth

    def _separated(self, ids, sub, sep: SeparatorResult):
        points = cand.candidate_pierce_points(sub)
        cov_local = cand.coverage_masks(sub, points)
        points, cov_local = prune_dominated(points, cov_local)
        n_local = len(sub)
        order_local = sorted(range(n_local), key=lambda j: (size(sub[j]), j))

        inside_local = 0
        for j in sep.inside_ids:
            inside_local |= 1 << j
        outside_local = 0
        for j in sep.outside_ids:
            outside_local |= 1 << j
        boundary_local = 0
        for j in sep.boundary_ids:
            boundary_local |= 1 << j

        state = {"best": None, "nodes": 1, "depth": 0}

        def to_global(local_mask: int) -> int:
            return _global_mask(ids, mask_to_ids(local_mask))

        def dfs(unb: int, removed: int, picked: List[Point]):
            best = state["best"]
            if best is not None and len(picked) >= best[0]:
                return
            if not unb:
                rin = self.solve(to_global(inside_local & ~removed))
                rout = self.solve(to_global(outside_local & ~removed))
                state["nodes"] += rin[2] + rout[2]
                state["depth"] = max(state["depth"], 1 + max(rin[3], rout[3]))
                value = len(picked) + rin[0] + rout[0]
                if state["best"] is None or value < state["best"][0]:
                    state["best"] = (value, list(picked) + rin[1] + rout[1])
                return
            o = next(j for j in order_local if unb & (1 << j))
            obit = 1 << o
            for k in range(len(points)):
                if cov_local[k] & obit:
                    picked.append(points[k])
                    dfs(unb & ~cov_local[k], removed | cov_local[k], picked)
                    picked.pop()

        dfs(boundary_local, 0, [])
        best = state["best"]
        assert best is not None
        return best[0], best[1], state["nodes"], state["depth"]


def _solve(problem: str, search_cls, fallback, inst: Instance, cfg: Optional[SolveConfig]) -> Solution:
    """Run one exact search over the whole instance; on a node-cap abort,
    return the greedy `fallback(ctx)` answer instead."""
    cfg = cfg or SolveConfig()
    start = time.perf_counter()
    ctx = IntersectionContext(inst.objects)
    budget = _Budget(cfg.node_cap)
    try:
        value, witness, nodes, depth = search_cls(ctx, cfg, budget).solve(ctx.full_mask())
        aborted = False
    except _CapStop:
        est = fallback(ctx)
        value, witness, nodes, depth = est.value, est.witness, budget.count, 0
        aborted = True
    return Solution(
        problem=problem,
        value=value,
        witness=witness,
        nodes=nodes,
        depth=depth,
        wall_time=time.perf_counter() - start,
        optimal=not aborted,
        aborted=aborted,
    )


def solve_pack(inst: Instance, cfg: Optional[SolveConfig] = None) -> Solution:
    return _solve(
        "pack", _PackSearch, lambda ctx: greedy_pack(inst.objects, ctx=ctx), inst, cfg
    )


def solve_pierce(inst: Instance, cfg: Optional[SolveConfig] = None) -> Solution:
    return _solve(
        "pierce", _PierceSearch, lambda ctx: greedy_pierce(list(inst.objects)), inst, cfg
    )
