"""Exact packing and piercing by recursive separation.

Small subproblems (by greedy estimate) are closed exactly; larger ones are
split with a box separator, enumerating independent sets (packing) or
candidate pierce covers (piercing) of the boundary class.  Unbalanced or
degenerate separators fall back to pivot branching, so termination and
exactness never depend on separator quality.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import candidates as cand
from .geometry import FatObject, Point, size
from .instances import Instance
from .measure import (
    OVERFLOW,
    IntersectionContext,
    exact_small_pack,
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


def _close_exact(exact, objs, cap: int):
    """Run a capped exact closer, doubling the cap (up to len(objs)) until
    the value fits under it."""
    while True:
        res = exact(objs, cap)
        if res is not OVERFLOW:
            return res
        cap = min(len(objs), cap * 2)


def enumerate_boundary_independent_sets(
    boundary: Sequence[FatObject], cap: int
):
    """Yield every independent subset of `boundary` of size <= cap, once.

    DFS with forward pruning: subsets extend only by non-intersecting,
    higher-id objects, so each subset appears exactly once, the empty set
    first.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    ctx = IntersectionContext(boundary)

    def rec(prefix: List[int], cand_mask: int):
        yield list(prefix)
        if len(prefix) == cap:
            return
        rest = cand_mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            higher = ~((1 << (i + 1)) - 1)
            yield from rec(prefix + [i], cand_mask & higher & ~ctx.nbr[i])

    yield from rec([], ctx.full_mask())


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
        ids = mask_to_ids(mask)
        g, _ = self.ctx.greedy_pack_mask(mask)
        if g <= self.cfg.base_threshold:
            res = _close_exact(exact_small_pack, [self.ctx.objs[i] for i in ids], max(g, 1))
            return res.value, sorted(ids[j] for j in res.witness), 1, 0
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
        inside = 0
        for j in sep.inside_ids:
            inside |= 1 << ids[j]
        outside = 0
        for j in sep.outside_ids:
            outside |= 1 << ids[j]
        boundary_ids = [ids[j] for j in sep.boundary_ids]
        boundary_objs = [self.ctx.objs[i] for i in boundary_ids]

        # Exact Pack of the boundary caps the enumeration depth; nothing is
        # missed since no optimal independent set can pack the boundary harder.
        bcap = 0
        if boundary_objs:
            g = greedy_pack(boundary_objs).value
            bcap = _close_exact(exact_small_pack, boundary_objs, max(g, 1)).value

        best = None
        nodes = 1
        depth = 0
        for local in enumerate_boundary_independent_sets(boundary_objs, bcap):
            chosen = [boundary_ids[j] for j in local]
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
            cap = max(1, min(self.cfg.base_threshold, len(sub)))
            res = _close_exact(exact_small_pierce, sub, cap)
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
            removed = 0
            for j in range(len(sub)):
                if cov_local[k] & (1 << j):
                    removed |= 1 << ids[j]
            r = self.solve(mask & ~removed)
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
            m = 0
            for j in mask_to_ids(local_mask):
                m |= 1 << ids[j]
            return m

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
