"""Exact packing and piercing by recursive separation.

Each solve builds one `IntersectionContext` and searches subproblems as
bitmasks over it; piercing also builds one `PierceTable` and restricts it
to each subproblem's mask.  Packing witnesses are context ids (size ranks)
until the solve maps them to given positions.  Small subproblems (by greedy
estimate) are closed exactly.  A larger one that is disconnected in the
intersection graph is a component node: Pack and Pierce add up over
components, and so do both greedy estimates, so components whose estimates
sum to at most `base_threshold` close together as one base case and each
larger component is searched on its own.  The packing closer then searches
each component of such a batch alone (`IntersectionContext.exact_pack_mask`);
the piercing closer searches the batch as one family.  A larger connected one
is split with a box separator, enumerating independent sets (packing) or
candidate pierce covers (piercing) of the boundary class.  `split` passes
`separate` the context read through the mask (`Subfamily`), so every split
of a solve shares its one context and separator tables, and takes the
separator's regions as masks over the context.  Unbalanced
or degenerate separators fall back to pivot branching, so termination and
exactness never depend on separator quality.

`_Search.run(mask)` is the one runner: the exact solvers run it on the
full mask, and `ptas` on each leaf of its recursion over the same context.
A memo per run maps each mask to its answer, so every subproblem is expanded
once however many boundary configurations or pivots reach it;
`Solution.nodes` counts these expansions: base cases, component nodes (and
each batch or component they solve), separated nodes and pivots.  `depth`
counts separated and pivot levels only, since a component node separates
nothing.  The node cap counts every subproblem request, memo hits included,
and every step of the piercing boundary search, so it bounds the
enumeration work the memo does not save.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .geometry import Point
from .instances import Instance
from .measure import IntersectionContext, PierceTable, Subfamily, mask_to_ids
from .separator import SeparatorConfig, separate


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

    `problem` is "pack" (witness: the chosen objects' positions in the
    family as given, sorted) or "pierce" (witness: points).  `nodes` counts
    the subproblems expanded (distinct masks of an exact search; the PTAS
    adds its parts).  `optimal` means the value is proven optimal; `aborted`
    means some exact search hit the node cap and fell back to a greedy answer.
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


class _Search:
    """Memoized search over the masks of one context.  `solve(mask)` returns
    (value, witness, depth); subclasses expand a mask in `_expand(mask, g)`
    (closing it exactly when its greedy estimate `g`, computed there unless
    given, is at most `base_threshold`) and give its greedy answer in
    `greedy`."""

    def __init__(self, ctx: IntersectionContext, cfg: SolveConfig):
        self.ctx = ctx
        self.cfg = cfg
        self.sepcfg = cfg.separator_config()

    def run(self, mask: int) -> tuple:
        """Exact search of `mask` with a fresh memo and node budget:
        (value, witness, depth, nodes, aborted).  On a node-cap abort the
        answer is `greedy(mask)`."""
        self.memo: Dict[int, tuple] = {}
        self.budget = _Budget(self.cfg.node_cap)
        try:
            value, witness, depth = self.solve(mask)
            aborted = False
        except _CapStop:
            value, witness = self.greedy(mask)
            depth, aborted = 0, True
        return value, witness, depth, len(self.memo), aborted

    def solve(self, mask: int, estimate: Optional[int] = None) -> tuple:
        """Memoized answer of `mask`.  A caller that knows the mask's greedy
        `estimate` passes it on to `_expand`, which then skips computing it."""
        self.budget.tick()
        hit = self.memo.get(mask)
        if hit is None:
            hit = self.memo[mask] = self._expand(mask, estimate)
        return hit

    def _components(self, parts: List[int], estimates: List[int]) -> tuple:
        """Answer of a disconnected mask from its component `parts` and
        their greedy `estimates`.

        Both greedy estimates add up over components, so components whose
        estimates sum to at most `base_threshold` close together as one
        base case (a batch, formed in order of lowest bit, whose estimate
        `_expand` is handed, so it cannot come back here); each larger
        component gets its own search.  The value is the sum over the
        solved parts, the witness their union and the depth the largest of
        theirs: this node separates nothing.
        """
        cap = self.cfg.base_threshold
        answers = []
        batch = load = 0
        for part, estimate in zip(parts, estimates):
            if estimate > cap:
                answers.append(self.solve(part))
                continue
            if load + estimate > cap:
                answers.append(self.solve(batch, load))
                batch = load = 0
            batch |= part
            load += estimate
        if batch:
            answers.append(self.solve(batch, load))
        witness = [x for answer in answers for x in answer[1]]
        return sum(answer[0] for answer in answers), witness, max(answer[2] for answer in answers)

    def split(self, mask: int) -> Optional[Tuple[int, int, int]]:
        """(inside, outside, boundary) masks of the separator of `mask`'s
        objects, or None when that split is unbalanced."""
        sep = separate(Subfamily(self.ctx, mask), self.sepcfg)
        if sep.unbalanced(self.cfg.balance_cap):
            return None
        return sep.inside, sep.outside, sep.boundary


class _PackSearch(_Search):
    def greedy(self, mask: int) -> Tuple[int, List[int]]:
        value, chosen = self.ctx.greedy_pack_mask(mask)
        return value, mask_to_ids(chosen)

    def _expand(self, mask: int, g: Optional[int] = None) -> Tuple[int, List[int], int]:
        if not mask:
            return 0, [], 0
        if g is None:
            g, greedy = self.ctx.greedy_pack_mask(mask)
        if g <= self.cfg.base_threshold:
            value, chosen = self.ctx.exact_pack_mask(mask)
            return value, mask_to_ids(chosen), 0
        comps = self.ctx.components(mask)
        if len(comps) > 1:
            return self._components(comps, [(greedy & c).bit_count() for c in comps])
        parts = self.split(mask)
        if parts is None:
            return self._pivot(mask)
        return self._separated(*parts)

    def _pivot(self, mask):
        # Max-degree pivot: Pack = max(Pack(C - o), 1 + Pack(C - N[o])).
        o = max(mask_to_ids(mask), key=lambda i: ((self.ctx.nbr[i] & mask).bit_count(), -i))
        skip = self.solve(mask & ~(1 << o))
        take = self.solve(mask & ~self.ctx.nbr[o])
        depth = 1 + max(skip[2], take[2])
        if 1 + take[0] >= skip[0]:
            return 1 + take[0], take[1] + [o], depth
        return skip[0], skip[1], depth

    def _separated(self, inside: int, outside: int, boundary: int):
        best = None
        depth = 0
        for chosen in self.ctx.independent_sets(boundary):
            nmask = 0
            for i in chosen:
                nmask |= self.ctx.nbr[i]
            rin = self.solve(inside & ~nmask)
            rout = self.solve(outside & ~nmask)
            depth = max(depth, 1 + max(rin[2], rout[2]))
            value = len(chosen) + rin[0] + rout[0]
            if best is None or value > best[0]:
                best = (value, chosen + rin[1] + rout[1])
        assert best is not None
        return best[0], best[1], depth


class _PierceSearch(_Search):
    def __init__(self, ctx: IntersectionContext, cfg: SolveConfig):
        super().__init__(ctx, cfg)
        self.table = PierceTable(ctx)

    def greedy(self, mask: int) -> Tuple[int, List[Point]]:
        points, cov = self.table.restrict(mask)
        picked = self.ctx.greedy_pierce_mask(cov, mask)
        return len(picked), [points[k] for k in picked]

    def _expand(self, mask: int, g: Optional[int] = None) -> Tuple[int, List[Point], int]:
        if not mask:
            return 0, [], 0
        points, cov = self.table.restrict(mask)
        if g is None:
            greedy = self.ctx.greedy_pierce_mask(cov, mask)
            g = len(greedy)
        if g <= self.cfg.base_threshold:
            # The greedy cover is feasible, so the optimum fits under g.
            picked = self.ctx.exact_pierce_mask(cov, mask, g)
            return len(picked), [points[k] for k in picked], 0
        comps = self.ctx.components(mask)
        if len(comps) > 1:
            # A point pierces objects of one component only.
            return self._components(comps, [sum(1 for k in greedy if cov[k] & c) for c in comps])
        parts = self.split(mask)
        if parts is None:
            return self._pivot(mask, points, cov)
        return self._separated(*parts, points, cov)

    def _pivot(self, mask, points, cov):
        # Branch over the points that pierce the smallest object.
        obit = mask & -mask
        best = None
        depth = 0
        for p, c in zip(points, cov):
            if not c & obit:
                continue
            r = self.solve(mask & ~c)
            depth = max(depth, 1 + r[2])
            if best is None or 1 + r[0] < best[0]:
                best = (1 + r[0], [p] + r[1])
        assert best is not None, "candidate set must pierce the pivot object"
        return best[0], best[1], depth

    def _separated(self, inside: int, outside: int, boundary: int, points, cov):
        best = None
        depth = 0

        def dfs(unb: int, removed: int, picked: List[Point]):
            nonlocal best, depth
            self.budget.tick()
            if best is not None and len(picked) >= best[0]:
                return
            if not unb:
                rin = self.solve(inside & ~removed)
                rout = self.solve(outside & ~removed)
                depth = max(depth, 1 + max(rin[2], rout[2]))
                value = len(picked) + rin[0] + rout[0]
                if best is None or value < best[0]:
                    best = (value, picked + rin[1] + rout[1])
                return
            obit = unb & -unb
            for p, c in zip(points, cov):
                if c & obit:
                    dfs(unb & ~c, removed | c, picked + [p])

        dfs(boundary, 0, [])
        assert best is not None
        return best[0], best[1], depth


def _solve(problem: str, search_cls, inst: Instance, cfg: Optional[SolveConfig]) -> Solution:
    """Run one exact search over the whole instance."""
    cfg = cfg or SolveConfig()
    start = time.perf_counter()
    ctx = IntersectionContext(inst.objects)
    value, witness, depth, nodes, aborted = search_cls(ctx, cfg).run(ctx.full_mask())
    if problem == "pack":
        witness = sorted(ctx.ids[i] for i in witness)
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
