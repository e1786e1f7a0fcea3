"""Approximation schemes: recursive separation with boundary discarding.

The exact search of `solver` with one change at each separated part: the
boundary class is not enumerated.  Packing drops it outright and unions the
two sides' solutions; piercing covers it with greedy points and recurses on
what is left.  Once the greedy estimate falls under the stop threshold the
exact search takes over, so each level loses at most the (small) boundary
measure and the overall ratio follows.  A part whose greedy estimate equals
its size is independent (greedy packing takes every object of a mask just
when no two meet, and greedy piercing spends one point per object just
then), so Pack = Pierce = its size, and its greedy witness is the exact
search's answer: nothing is split, searched or paid for.  For packing that
witness is the whole part.  For piercing, no kept row of the part's
restricted table then pierces two of its objects: an object in such a row
has no kept row that pierces it alone (those are dominated), so greedy's
first pick of such a row would pierce two objects that no earlier pick
did.  So each object has one kept row, and greedy and the exact search both
take them all, in object order.

Packing starts that recursion from the family's dominance kernel
(`IntersectionContext.dominance_kernel`): an object goes when a
neighbour's closed neighbourhood lies in its own, and a packing may take
that neighbour instead, so the kernel holds a maximum packing of the
family.  OPT, and with it the ratio, stays, and every split reads fewer
objects.  Packing ends with a greedy refill, from the whole family, of the
room the dropped objects leave, and answers the whole family's greedy
packing instead when that is larger; piercing starts from the whole family
and ends by dropping each point whose objects the other points all pierce.

Each call builds one `IntersectionContext` and one search object over it
(piercing: with one `PierceTable`), and recurses on masks.  Estimates,
splits, boundary covers and exact leaves all go through that search, whose
`run` gives each leaf its own memo and node budget and takes the leaf's
estimate, so a piercing leaf makes one greedy cover.  The witness stays in
the search's ids (context ids, table rows) through the finish step, which
each scheme passes in as it passes its root and boundary steps, and leaves
through the search's `output`.  For the length of one call the context
memoizes its greedy packing walks and the table its restrictions.
"""
from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .instances import Instance
from .measure import IntersectionContext
from .solver import Solution, SolveConfig, _PackSearch, _PierceSearch


@dataclass
class PtasConfig:
    epsilon: float = 0.25
    c_stop: float = 3.0
    solve: SolveConfig = field(default_factory=SolveConfig)

    def __post_init__(self):
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if not (0.0 < self.c_stop < math.inf):
            raise ValueError("c_stop must be positive and finite")

    def stop_threshold(self, d: int) -> int:
        # d=2 with c_stop=1 recovers the classic (1/eps)^2 stop rule.
        return max(int(math.ceil((self.c_stop / self.epsilon) ** d)), 1)


def _kernel(search, mask: int) -> int:
    """Packing: the root is `mask`'s dominance kernel, which holds a
    maximum packing of it."""
    return search.ctx.dominance_kernel(mask)


def _whole(search, mask: int) -> int:
    """Piercing: the root is all of `mask`; every object must be pierced."""
    return mask


def _drop_boundary(search, boundary: int) -> Tuple[int, list, int]:
    """Packing: drop the boundary class; no object of either side is lost."""
    return boundary.bit_count(), [], 0


def _cover_boundary(search, boundary: int) -> Tuple[int, list, int]:
    """Piercing: pierce the boundary class greedily; every object those
    rows pierce, on either side, is done."""
    rows = search.greedy(boundary)
    covered = 0
    for r in rows:
        covered |= search.table.cov[r]
    return len(rows), rows, covered


def _refill(search, witness: list) -> list:
    """Packing: `witness` (context ids) and then the objects, smallest
    first, that join it greedily because they meet none of its objects (the
    dropped boundaries leave room that the two sides' solutions do not use,
    and the objects outside the kernel were never tried), or the whole
    family's greedy packing when that is larger."""
    blocked = 0
    for i in witness:
        blocked |= search.ctx.nbr[i]
    witness = witness + search.greedy(search.ctx.full_mask() & ~blocked)
    floor = search.greedy(search.ctx.full_mask())
    return floor if len(floor) > len(witness) else witness


def _drop_redundant(search, witness: list) -> list:
    """Piercing: `witness` (table rows) without each row, taken in reverse
    pick order, whose objects the other rows all pierce."""
    covs = [search.table.cov[r] for r in witness]
    before = [0]
    for c in covs:
        before.append(before[-1] | c)
    after = 0
    kept = []
    for k in reversed(range(len(witness))):
        if covs[k] & ~(before[k] | after):
            kept.append(witness[k])
            after |= covs[k]
    return kept[::-1]


def _ptas(inst: Instance, cfg: PtasConfig, search_cls, root_step, boundary_step, finish) -> Solution:
    """Shared recursion of both schemes, over masks of one context.

    `root_step(search, mask)` gives the part, within the whole family's
    mask, that the recursion starts from.  A part whose greedy estimate
    equals its size (an independent part) answers its greedy witness.  One
    whose estimate is at most the stop threshold, or whose separator is
    unbalanced, is a leaf: the exact search's `run` closes it, handed that
    estimate.
    Otherwise `boundary_step(search, boundary)` pays for the boundary class
    and returns (cost, witness, covered): `cost` adds to `discarded`,
    `witness` joins the witness, and the `covered` objects leave both sides
    before the recursion.  `finish(search, witness)` ends the whole witness.
    """
    start = time.perf_counter()
    stop = cfg.stop_threshold(inst.dim)
    ctx = IntersectionContext(inst.objects)
    # The parts' estimates, their splits' measures, the leaves and the
    # packing refill walk the same masks: each greedy walk is made once.
    ctx.greedy_pack_mask = functools.cache(ctx.greedy_pack_mask)
    search = search_cls(ctx, cfg.solve)
    # A piercing leaf restricts its mask for its estimate and again for its
    # search: each mask is restricted once.
    table = getattr(search, "table", None)
    if table is not None:
        table.restrict = functools.cache(table.restrict)
    discarded = 0
    nodes = 0
    max_depth = 0
    aborted = False

    def rec(mask: int, depth: int) -> list:
        nonlocal discarded, nodes, max_depth, aborted
        nodes += 1
        max_depth = max(max_depth, depth)
        if not mask:
            return []
        greedy = search.greedy(mask)
        g = len(greedy)
        # An independent part: its greedy witness is the exact search's.
        # Any other part with a greedy value above stop >= 1 has two objects
        # that meet, as `separate` needs.
        if g == mask.bit_count():
            return greedy
        parts = search.split(mask) if g > stop else None
        if parts is None:
            witness, _, leaf_nodes, leaf_aborted = search.run(mask, g)
            nodes += leaf_nodes
            aborted |= leaf_aborted
            return witness
        inside, outside, boundary = parts
        cost, witness, covered = boundary_step(search, boundary)
        discarded += cost
        return witness + rec(inside & ~covered, depth + 1) + rec(outside & ~covered, depth + 1)

    witness = finish(search, rec(root_step(search, ctx.full_mask()), 0))
    # The memos go with the solve: each and its owner refer to each other.
    del ctx.greedy_pack_mask
    if table is not None:
        del table.restrict
    return Solution(
        problem=search.problem,
        witness=search.output(witness),
        nodes=nodes,
        depth=max_depth,
        wall_time=time.perf_counter() - start,
        aborted=aborted,
        discarded=discarded,
    )


def ptas_pack(inst: Instance, cfg: Optional[PtasConfig] = None) -> Solution:
    """(1 - eps)-approximate packing of the family's dominance kernel,
    which holds a maximum packing of the family; witness is always
    feasible and never smaller than `greedy_pack`'s.

    `discarded` counts the boundary objects dropped, the realized loss to
    compare against eps/3, before the refill adds back those it can.
    """
    return _ptas(inst, cfg or PtasConfig(), _PackSearch, _kernel, _drop_boundary, _refill)


def ptas_pierce(inst: Instance, cfg: Optional[PtasConfig] = None) -> Solution:
    """(1 + eps)-approximate piercing; witness always pierces everything.

    `discarded` counts the greedy points spent on boundary classes, before
    the redundant points of the witness are dropped.
    """
    return _ptas(inst, cfg or PtasConfig(), _PierceSearch, _whole, _cover_boundary, _drop_redundant)
