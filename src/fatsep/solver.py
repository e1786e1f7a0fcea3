"""Exact packing and piercing by recursive separation.

Each solve builds one `IntersectionContext` and searches subproblems as
bitmasks over it; piercing also builds one `PierceTable` and restricts it
to each subproblem's mask, as a mask of the table rows kept, which the
greedy cover and the boundary search read through the table's incidence
index (the rows that pierce each object).  An answer is its witness (with a
depth), its value the witness's length: context ids (size ranks) for
packing, table rows for piercing, until the search's `output` maps them to
given positions or points once per solve.  One node step serves both
problems, and a node reads only its greedy estimate.  Small subproblems (by
greedy estimate) are base cases, closed exactly: packing by
`IntersectionContext.exact_pack_mask`, piercing by the boundary search
below with the whole mask as the boundary and nothing inside or outside.  A
larger one that is disconnected in the intersection graph is a component
node: Pack and Pierce add up over components, and so do both greedy
estimates, so a node not handed its estimate finds its components first and
estimates each part alone (a lone object counts 1), their sum its estimate;
components whose estimates sum to at most `base_threshold` close together
as one base case and each larger component is searched on its own, each
handed its estimate.  The packing closer then searches each component of
such a batch alone, handed the components already found.  A larger
connected one is split with a box separator, enumerating independent sets
(packing) or candidate pierce covers (piercing) of the boundary class; a
piercing configuration counts only if its whole cover is no larger than
the node's greedy one, then only if it is smaller than the best
found.  `split` passes `separate` the context read through the mask
(`Subfamily`), so every split of a solve shares its one context and
separator tables, and takes the separator's regions as masks over the
context.  An unbalanced or degenerate separator makes the node pivot: a
split whose boundary is one object (packing: the one with the most
neighbours, piercing: the smallest) and whose outside is empty, so every
connected node branches in `_separated` and termination and exactness
never depend on separator quality.

`_Search.run(mask, estimate)` is the one runner: the exact solvers run it
on the full mask, and `ptas` on each leaf of its recursion over the same
context, handing the leaf's estimate.  A memo per run maps each non-empty
mask to its answer (the empty one is answered at once), so every
subproblem is expanded once however many boundary configurations reach
it; `Solution.nodes` counts these expansions: base cases, component nodes
(and each batch or component they solve), separated nodes and pivots.
`depth` counts separated levels (pivots too); base cases and component
nodes separate nothing.  The node cap counts every subproblem request,
memo hits included, every branch of the packing closer and every step of
the piercing boundary search (base cases included), so it bounds a base
case's work too.
"""
from __future__ import annotations

import numbers
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
        for name in ("base_threshold", "node_cap"):
            value = getattr(self, name)
            # `int` first: every solve builds a config, and the ABC check
            # alone costs about a microsecond.
            integral = isinstance(value, int) or isinstance(value, numbers.Integral)
            if not integral or value < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        # The separator takes epsilon in (0, 1/2]; a PTAS carries its own
        # epsilon in (0, 1) here (see `bench.run_solver`).
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not (0.0 < self.balance_cap <= 1.0):
            raise ValueError("balance_cap must lie in (0, 1]")

    def separator_config(self) -> SeparatorConfig:
        return SeparatorConfig(epsilon=self.epsilon, balance_cap=self.balance_cap)


@dataclass
class Solution:
    """Result of every solver, exact or approximate.

    `problem` is "pack" (witness: the chosen objects' positions in the
    family as given, sorted) or "pierce" (witness: points), and `value` the
    witness's length.  `nodes` counts the subproblems expanded (distinct
    masks of an exact search; the PTAS adds its parts).  `aborted` means
    some exact search hit the node cap and fell back to a greedy answer.
    `discarded` is the PTAS's boundary cost: objects dropped (packing) or
    greedy points spent (piercing).  `optimal` means neither happened, so
    the value is proven optimal.
    """

    problem: str
    witness: list
    nodes: int
    depth: int
    wall_time: float
    aborted: bool = False
    discarded: int = 0

    @property
    def value(self) -> int:
        return len(self.witness)

    @property
    def optimal(self) -> bool:
        return self.discarded == 0 and not self.aborted


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
    """Memoized search over the masks of one context.  An answer is
    (witness, depth), its value the witness's length; a witness lists
    context ids (packing) or `PierceTable` rows (piercing).  `solve(mask)`
    returns one, expanding a non-empty mask once in `_expand`.  A problem
    supplies the hooks: `view(mask)`, what a node reads of its mask
    (piercing: the kept rows, packing: None); `estimate(mask, view)`, the
    greedy value through the view of `mask` or of a mask holding it as
    components; `close(mask, view, g, parts)`, a base case's witness, each
    branch ticking the budget; `_pivot(mask)`, the one-object split;
    `_separated(inside, outside, boundary, view, g)`, the branching over a
    boundary class; `greedy(mask)`, a feasible witness; and `output`, which
    maps a witness out of the search, for `problem`."""

    def __init__(self, ctx: IntersectionContext, cfg: SolveConfig):
        self.ctx = ctx
        self.cfg = cfg
        self.sepcfg = cfg.separator_config()

    def run(self, mask: int, estimate: Optional[int] = None) -> tuple:
        """Exact search of `mask` with a fresh memo and node budget:
        (witness, depth, nodes, aborted), `estimate` passed on to `solve`.
        On a node-cap abort the witness is `greedy(mask)`."""
        self.memo: Dict[int, tuple] = {}
        self.budget = _Budget(self.cfg.node_cap)
        try:
            witness, depth = self.solve(mask, estimate)
            aborted = False
        except _CapStop:
            witness, depth, aborted = self.greedy(mask), 0, True
        return witness, depth, len(self.memo), aborted

    def solve(self, mask: int, estimate: Optional[int] = None, parts: Optional[List[int]] = None) -> tuple:
        """Memoized answer of `mask`, `_expand` handed the mask's greedy
        `estimate` when its caller knows it and a batch's component `parts`,
        which the packing closer reads instead of finding them again."""
        self.budget.tick()
        if not mask:
            return [], 0
        hit = self.memo.get(mask)
        if hit is None:
            hit = self.memo[mask] = self._expand(mask, estimate, parts)
        return hit

    def _expand(self, mask: int, g: Optional[int], parts: Optional[List[int]]) -> tuple:
        """The node step of both problems.  Unless `g` is handed in, the
        mask's components come first and each is estimated once (a lone
        object counts 1), `g` their sum; a closer and `_components` read
        those parts and estimates.  A handed `g` above `base_threshold`
        finds the components and, if there are several, their estimates."""
        view = self.view(mask)
        if g is None or g > self.cfg.base_threshold:
            parts = self.ctx.components(mask)
            if g is None or len(parts) > 1:
                estimates = [self.estimate(c, view) if c & (c - 1) else 1 for c in parts]
                g = sum(estimates)
        if g <= self.cfg.base_threshold:
            return self.close(mask, view, g, parts), 0
        if len(parts) > 1:
            return self._components(parts, estimates)
        return self._separated(*(self.split(mask) or self._pivot(mask)), view, g)

    def _components(self, parts: List[int], estimates: List[int]) -> tuple:
        """Answer of a disconnected mask from its component `parts` and
        their greedy `estimates`.

        Both greedy estimates add up over components, so components whose
        estimates sum to at most `base_threshold` close together as one
        base case (a batch, formed in order of lowest bit); each larger
        component gets its own search.  The witness is the union of the
        solved parts' and the depth the largest of theirs: this node
        separates nothing.
        """
        cap = self.cfg.base_threshold
        answers = []
        batch = load = 0
        held: List[int] = []
        for part, estimate in zip(parts, estimates):
            if estimate > cap:
                answers.append(self.solve(part, estimate))
                continue
            if load + estimate > cap:
                answers.append(self.solve(batch, load, held))
                batch = load = 0
                held = []
            batch |= part
            load += estimate
            held.append(part)
        if batch:
            answers.append(self.solve(batch, load, held))
        return [x for witness, _ in answers for x in witness], max(depth for _, depth in answers)

    def split(self, mask: int) -> Optional[Tuple[int, int, int]]:
        """(inside, outside, boundary) masks of the separator of `mask`'s
        objects, or None when that split is unbalanced."""
        sep = separate(Subfamily(self.ctx, mask), self.sepcfg)
        if sep.unbalanced(self.cfg.balance_cap):
            return None
        return sep.inside, sep.outside, sep.boundary


class _PackSearch(_Search):
    problem = "pack"

    def greedy(self, mask: int) -> List[int]:
        return mask_to_ids(self.ctx.greedy_pack_mask(mask)[1])

    def view(self, mask: int):
        return None

    def estimate(self, mask: int, view=None) -> int:
        return self.ctx.greedy_pack_mask(mask)[0]

    def close(self, mask: int, view, g: int, parts: Optional[List[int]]) -> List[int]:
        return mask_to_ids(self.ctx.exact_pack_mask(mask, self.budget.tick, parts)[1])

    def output(self, witness: List[int]) -> List[int]:
        return sorted(self.ctx.ids[i] for i in witness)

    def _pivot(self, mask):
        # The object with the most neighbours alone as the boundary, so
        # Pack = max(Pack(C - o), 1 + Pack(C - N[o])).
        o = 1 << max(mask_to_ids(mask), key=lambda i: ((self.ctx.nbr[i] & mask).bit_count(), -i))
        return mask & ~o, 0, o

    def _separated(self, inside: int, outside: int, boundary: int, *_):
        # Independent sets of the boundary, the empty one first: a set grows
        # only by higher bits of `cand`, its bits that no chosen object
        # meets, and `blocked` is the union of its objects' neighbourhoods.
        best = None
        depth = 0
        nbr = self.ctx.nbr

        def dfs(cand: int, chosen: List[int], blocked: int):
            nonlocal best, depth
            rin, din = self.solve(inside & ~blocked)
            rout, dout = self.solve(outside & ~blocked)
            depth = max(depth, 1 + max(din, dout))
            if best is None or len(chosen) + len(rin) + len(rout) > len(best):
                best = chosen + rin + rout
            while cand:
                low = cand & -cand
                cand ^= low
                i = low.bit_length() - 1
                dfs(cand & ~nbr[i], chosen + [i], blocked | nbr[i])

        dfs(boundary, [], 0)
        assert best is not None
        return best, depth


class _PierceSearch(_Search):
    problem = "pierce"

    def __init__(self, ctx: IntersectionContext, cfg: SolveConfig):
        super().__init__(ctx, cfg)
        self.table = PierceTable(ctx)

    def greedy(self, mask: int) -> List[int]:
        return self.table.greedy(mask, self.view(mask))

    def view(self, mask: int) -> int:
        return self.table.restrict(mask)

    def estimate(self, mask: int, view: Optional[int] = None) -> int:
        # A point pierces one component's objects only, so of the view of
        # `mask` and other components, the rows that pierce `mask` are its own.
        return len(self.table.greedy(mask, self.view(mask) if view is None else view))

    def close(self, mask: int, kept: int, g: int, parts: Optional[List[int]]) -> List[int]:
        # A base case separates nothing: its whole mask is the boundary.
        return self._separated(0, 0, mask, kept, g)[0]

    def output(self, witness: List[int]) -> List[Point]:
        return [self.table.points[r] for r in witness]

    def _pivot(self, mask):
        # The smallest object alone as the boundary: its covers are the
        # points that pierce it.
        obit = mask & -mask
        return mask & ~obit, 0, obit

    def _separated(self, inside: int, outside: int, boundary: int, kept: int, g: int):
        # Covers of the boundary from the rows of `kept` (the node's
        # restricted table): each step branches on the rows that pierce the
        # smallest object left, in row order.  A greedy cover of g rows
        # exists, so a configuration counts only below `limit`: g + 1 rows
        # at first, then the best found.  A closed boundary removes its
        # rows' objects from the sides, if it has any.
        best = None
        limit = g + 1
        depth = 0
        tick = self.budget.tick
        inc, cov = self.table.inc, self.table.cov
        sides = inside | outside

        def dfs(unb: int, picked: List[int]):
            nonlocal best, limit, depth
            tick()
            if not unb:
                if len(picked) < limit:
                    removed = 0
                    if sides:
                        for r in picked:
                            removed |= cov[r]
                    rin, din = self.solve(inside & ~removed)
                    rout, dout = self.solve(outside & ~removed)
                    depth = max(depth, 1 + max(din, dout))
                    if len(picked) + len(rin) + len(rout) < limit:
                        best = picked + rin + rout
                        limit = len(best)
                return
            if len(picked) + 1 >= limit:
                return
            for r in mask_to_ids(inc[(unb & -unb).bit_length() - 1] & kept):
                dfs(unb & ~cov[r], picked + [r])

        dfs(boundary, [])
        assert best is not None
        return best, depth


def _solve(search_cls, inst: Instance, cfg: Optional[SolveConfig]) -> Solution:
    """Run one exact search over the whole instance."""
    cfg = cfg or SolveConfig()
    start = time.perf_counter()
    ctx = IntersectionContext(inst.objects)
    search = search_cls(ctx, cfg)
    witness, depth, nodes, aborted = search.run(ctx.full_mask())
    return Solution(
        problem=search.problem,
        witness=search.output(witness),
        nodes=nodes,
        depth=depth,
        wall_time=time.perf_counter() - start,
        aborted=aborted,
    )


def solve_pack(inst: Instance, cfg: Optional[SolveConfig] = None) -> Solution:
    return _solve(_PackSearch, inst, cfg)


def solve_pierce(inst: Instance, cfg: Optional[SolveConfig] = None) -> Solution:
    return _solve(_PierceSearch, inst, cfg)
