"""Exact packing and piercing by recursive separation.

Each solve builds one `IntersectionContext` and searches subproblems as
bitmasks over it; piercing also builds one `PierceTable` and restricts it
to each subproblem's mask.  Small subproblems (by greedy estimate) are
closed exactly; larger ones are split with a box separator, enumerating
independent sets (packing) or candidate pierce covers (piercing) of the
boundary class.  Unbalanced or degenerate separators fall back to pivot
branching, so termination and exactness never depend on separator quality.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .geometry import Point
from .instances import Instance
from .measure import IntersectionContext, PierceTable, greedy_pack, mask_to_ids
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
    def greedy(self) -> Tuple[int, List[int]]:
        est = greedy_pack(self.ctx.objs, ctx=self.ctx)
        return est.value, est.witness

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
    def __init__(self, ctx: IntersectionContext, cfg: SolveConfig, budget: _Budget):
        super().__init__(ctx, cfg, budget)
        self.table = PierceTable(ctx)

    def greedy(self) -> Tuple[int, List[Point]]:
        picked = self.ctx.greedy_pierce_mask(self.table.cov, self.ctx.full_mask())
        return len(picked), [self.table.points[k] for k in picked]

    def solve(self, mask: int) -> Tuple[int, List[Point], int, int]:
        self.budget.tick()
        if not mask:
            return 0, [], 1, 0
        points, cov = self.table.restrict(mask)
        g = len(self.ctx.greedy_pierce_mask(cov, mask))
        if g <= self.cfg.base_threshold:
            # The greedy cover is feasible, so the optimum fits under g.
            picked = self.ctx.exact_pierce_mask(cov, mask, g)
            return len(picked), [points[k] for k in picked], 1, 0
        ids = mask_to_ids(mask)
        sep = separate([self.ctx.objs[i] for i in ids], self.sepcfg)
        if sep.unbalanced(self.cfg.balance_cap):
            return self._pivot(mask, points, cov)
        return self._separated(ids, sep, points, cov)

    def _pivot(self, mask, points, cov):
        # Branch over the points that pierce the smallest object.
        obit = 1 << next(i for i in self.ctx.order if mask & (1 << i))
        best = None
        nodes = 1
        depth = 0
        for p, c in zip(points, cov):
            if not c & obit:
                continue
            r = self.solve(mask & ~c)
            nodes += r[2]
            depth = max(depth, 1 + r[3])
            if best is None or 1 + r[0] < best[0]:
                best = (1 + r[0], [p] + r[1])
        assert best is not None, "candidate set must pierce the pivot object"
        return best[0], best[1], nodes, depth

    def _separated(self, ids, sep: SeparatorResult, points, cov):
        inside = _global_mask(ids, sep.inside_ids)
        outside = _global_mask(ids, sep.outside_ids)
        boundary = _global_mask(ids, sep.boundary_ids)
        best = None
        nodes = 1
        depth = 0

        def dfs(unb: int, removed: int, picked: List[Point]):
            nonlocal best, nodes, depth
            if best is not None and len(picked) >= best[0]:
                return
            if not unb:
                rin = self.solve(inside & ~removed)
                rout = self.solve(outside & ~removed)
                nodes += rin[2] + rout[2]
                depth = max(depth, 1 + max(rin[3], rout[3]))
                value = len(picked) + rin[0] + rout[0]
                if best is None or value < best[0]:
                    best = (value, picked + rin[1] + rout[1])
                return
            obit = 1 << next(i for i in self.ctx.order if unb & (1 << i))
            for p, c in zip(points, cov):
                if c & obit:
                    dfs(unb & ~c, removed | c, picked + [p])

        dfs(boundary, 0, [])
        assert best is not None
        return best[0], best[1], nodes, depth


def _solve(problem: str, search_cls, inst: Instance, cfg: Optional[SolveConfig]) -> Solution:
    """Run one exact search over the whole instance; on a node-cap abort,
    return the search's greedy answer instead."""
    cfg = cfg or SolveConfig()
    start = time.perf_counter()
    ctx = IntersectionContext(inst.objects)
    budget = _Budget(cfg.node_cap)
    search = search_cls(ctx, cfg, budget)
    try:
        value, witness, nodes, depth = search.solve(ctx.full_mask())
        aborted = False
    except _CapStop:
        value, witness = search.greedy()
        nodes, depth = budget.count, 0
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
    return _solve("pack", _PackSearch, inst, cfg)


def solve_pierce(inst: Instance, cfg: Optional[SolveConfig] = None) -> Solution:
    return _solve("pierce", _PierceSearch, inst, cfg)
