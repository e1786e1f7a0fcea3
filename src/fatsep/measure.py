"""Packing/piercing measure estimates.

Polynomial-time greedy bounds (smallest-first, fully deterministic) and
exact branch and bound.  The greedy packing value is always a lower bound
on the true packing number; the greedy piercing value is always a feasible
upper bound on the piercing number.  The exact solver
closes packing subproblems with `exact_pack_mask` and piercing ones with its
own boundary search over a `PierceTable`, and enumerates every boundary
class itself, all on bitmasks over one `IntersectionContext`.  The table
indexes its rows by object (`inc[o]`: the rows that pierce object o), so
its pruning, its restriction to a subproblem's mask, its greedy cover and
the boundary search all work on masks of table rows, with no scan of the
whole table.
`exact_pack_mask` closes each intersection component of its mask with its
own search and adds the answers up, so the solver's batches of small
components cost the sum of their searches rather than the product; a batch
hands it the components it already holds.
The context numbers its objects by size rank, so every smallest-first walk
and branch takes a mask's lowest bit.  It takes its family's flat rows
(`geometry.ShapeArrays`) and their sizes in a few numpy calls, sorts the
rows once, and keeps them as `ctx.arrays`, whose centres and corners the
separator and `PierceTable` read, built on first use: a packing solve that
never splits never builds them.  Its neighbourhood masks come from one
numpy array per pair of shapes with the float operations of
`geometry.intersects`, bit for bit; a family of more than `_DENSE_BALLS`
balls is swept on axis 0, so only the pairs within reach there are
tested.  `dominance_kernel` drops, by neighbourhood domination, objects
that some maximum packing does without; the packing PTAS starts from it.
A split reads the context through a mask
(`Subfamily`), so a solve's splits share its one context.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import or_
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from . import candidates as cand
from .geometry import TOL, FatObject, Point, ShapeArrays, rows_to_masks


class _Overflow:
    """Sentinel: the exact value exceeds the requested cap."""

    def __repr__(self):
        return "OVERFLOW"


OVERFLOW = _Overflow()


@dataclass
class MeasureEstimate:
    value: int
    witness: list = field(default_factory=list)


class RankAxes(NamedTuple):
    """A context's tables for the base-box search, built once per context.

    `coords[a]`: the sorted centre coordinates on axis a, as Python floats.
    `prefixes[a][k]`: the mask of the objects whose centres are among the k
    first there.  `members`: the objects of each clique of `cliques` in
    turn, and `labels`: the clique of each.
    """

    coords: List[List[float]]
    prefixes: List[List[int]]
    members: np.ndarray
    labels: np.ndarray


class IntersectionContext:
    """A family sorted by (size, given position), its closed-neighbourhood
    bitmasks and its `ShapeArrays`: bit i of every mask, row i of `arrays`,
    `nbr[i]` and bit i of every `PierceTable` coverage mean `objs[i]`, the
    i-th smallest object, whose given position is `ids[i]`.  Ids leave the
    package as given positions only (`input_ids`).  The layout of `arrays`
    (centres and corners), a greedy clique partition (`cliques`) and the
    separator's ranked centres (`rank_axes`) are built on first use."""

    def __init__(self, objs: Sequence[FatObject]):
        given = list(objs)
        arrays = ShapeArrays(given)
        order = np.argsort(arrays.sizes, kind="stable")
        self.ids = order.tolist()
        self.objs = [given[i] for i in self.ids]
        self.arrays = arrays.take(order)
        self.nbr = rows_to_masks(_intersection_matrix(self.arrays))

    @property
    def n(self) -> int:
        return len(self.objs)

    @cached_property
    def by_given(self) -> np.ndarray:
        """The object numbers in given order (the inverse of `ids`)."""
        return np.argsort(self.ids)

    def input_ids(self, mask: int) -> List[int]:
        """The given positions of `mask`'s objects, sorted."""
        return sorted(self.ids[i] for i in _bits(mask))

    @cached_property
    def cliques(self) -> List[int]:
        """A partition of the family into cliques of the intersection graph,
        as masks in order of lowest bit.  Each starts at the smallest object
        not yet placed and grows by the smallest unplaced object that meets
        all its members, so a packing holds at most one object of each."""
        cliques = []
        free = self.full_mask()
        while free:
            clique = low = free & -free
            grow = free
            while grow:
                grow &= self.nbr[low.bit_length() - 1] & ~low
                low = grow & -grow
                clique |= low
            cliques.append(clique)
            free &= ~clique
        return cliques

    @cached_property
    def rank_axes(self) -> RankAxes:
        """The separator's tables (see `RankAxes`), built on first use, so
        contexts that never separate do not pay for them."""
        perm = np.argsort(self.arrays.center.T, axis=1, kind="stable")
        prefixes = [list(accumulate((1 << i for i in p), or_, initial=0)) for p in perm.tolist()]
        return RankAxes(
            np.take_along_axis(self.arrays.center.T, perm, axis=1).tolist(),
            prefixes,
            np.array([i for clique in self.cliques for i in _bits(clique)], dtype=np.intp),
            np.repeat(np.arange(len(self.cliques)), [c.bit_count() for c in self.cliques]),
        )

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def components(self, mask: int) -> List[int]:
        """Masks of the intersection graph's components within `mask`, in
        order of lowest bit (bitmask BFS over `nbr`)."""
        nbr = self.nbr
        parts = []
        while mask:
            part = frontier = mask & -mask
            while frontier:
                mask ^= frontier  # what is left unreached
                reach = 0
                while frontier:  # over the bits of frontier, without a generator
                    low = frontier & -frontier
                    reach |= nbr[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & mask
                part |= frontier
            parts.append(part)
        return parts

    def greedy_pack_mask(self, mask: int):
        """Smallest-first maximal independent set within `mask`: pick the
        lowest free bit, then clear its closed neighbourhood.

        Returns (value, chosen_mask).
        """
        chosen = 0
        while mask:
            low = mask & -mask
            chosen |= low
            mask &= ~self.nbr[low.bit_length() - 1]
        return chosen.bit_count(), chosen

    def dominance_kernel(self, mask: int) -> int:
        """`mask` without the objects that neighbourhood domination drops:
        u goes when a neighbour v has N[v] ⊆ N[u] within what is left (of
        two equal closed neighbourhoods the higher id goes), so a maximum
        packing of the kernel is one of `mask` (swap u for v).  Each pass
        scans the ids in ascending order, dropping as it goes, and the
        passes repeat until one drops nothing."""
        nbr = self.nbr
        dropped = True
        while dropped:
            dropped = False
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                nu = nbr[low.bit_length() - 1] & mask
                others = nu ^ low
                while others:
                    bit = others & -others
                    others ^= bit
                    nv = nbr[bit.bit_length() - 1] & mask
                    if not nv & ~nu and (nv != nu or bit < low):
                        mask ^= low
                        dropped = True
                        break
        return mask

    def exact_pack_mask(
        self, mask: int, tick: Callable[[], None] = lambda: None, parts: Optional[List[int]] = None
    ):
        """Exact Pack within `mask`; returns (value, chosen_mask).

        Pack adds up over the intersection graph's components, so each
        component of `mask` is closed on its own (one of at most two objects,
        which meet, by its smallest) and the values are summed, the chosen
        masks joined.  A caller that holds them passes them as `parts`.
        Within one it branches on the closed neighborhood of the smallest
        remaining object: every maximal independent set contains one of
        those objects, so depth equals the component's solution size.
        Each branch calls `tick` (a solve's budget, which may abort it).
        """
        nbr = self.nbr

        def rec(mask: int, depth: int, picked: int):
            nonlocal best_val, best_wit
            tick()
            if not mask:
                if depth > best_val:
                    best_val, best_wit = depth, picked
                return
            if depth + mask.bit_count() <= best_val:
                return
            branch = nbr[(mask & -mask).bit_length() - 1] & mask
            while branch:
                low = branch & -branch
                rec(mask & ~nbr[low.bit_length() - 1], depth + 1, picked | low)
                branch ^= low

        value = chosen = 0
        for part in self.components(mask) if parts is None else parts:
            if part.bit_count() <= 2:
                value += 1
                chosen |= part & -part
                continue
            best_val, best_wit = -1, 0
            rec(part, 0, 0)
            value += best_val
            chosen |= best_wit
        return value, chosen


class Subfamily:
    """The objects of `mask` in `ctx`, which a split hands `separate`.  It
    has the mask's popcount as length and yields its objects in given order,
    as a list of them would.  `member` flags the mask's bits and `given`
    lists them in given order; `arrays` holds their rows, in rank order."""

    def __init__(self, ctx: IntersectionContext, mask: Optional[int] = None):
        self.ctx = ctx
        self.mask = ctx.full_mask() if mask is None else mask

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self):
        return (self.ctx.objs[i] for i in self.given.tolist())

    @cached_property
    def member(self) -> np.ndarray:
        packed = np.frombuffer(self.mask.to_bytes(-(-self.ctx.n // 8), "little"), np.uint8)
        return np.unpackbits(packed, count=self.ctx.n, bitorder="little").view(bool)

    @cached_property
    def given(self) -> np.ndarray:
        return self.ctx.by_given[self.member[self.ctx.by_given]]

    @cached_property
    def arrays(self) -> ShapeArrays:
        return self.ctx.arrays.take(np.flatnonzero(self.member))

    def masks(self, rows: np.ndarray) -> List[int]:
        """Bitmask over the context of each row of a boolean array over its objects."""
        full = np.zeros((len(rows), self.ctx.n), dtype=bool)
        full[:, self.member] = rows
        return rows_to_masks(full)


class PierceTable:
    """Undominated candidate pierce points of a context's family (sorted),
    their coverage masks over that context (`cov`) and its incidence index:
    `inc[o]` is the mask of the rows whose coverage holds object o, the
    transpose of `cov`.  Searches name rows by their indices and carry sets
    of them as row masks.

    One table serves every subfamily.  A subfamily's candidates are among the
    family's (for boxes the points of the grid of lows that lie in some box,
    which is then a box of the family too, plus the centres; for disks the
    lowest points plus the pairwise circle intersections), and `cov(p) ⊆ cov(q)`
    implies `cov(p) & mask ⊆ cov(q) & mask`, so `restrict(mask)` still holds
    a minimum piercing of `mask`.  The rows come in one pass from
    `candidates.candidate_rows` over the context's own layout (for boxes one
    row per distinct coverage, plus the centres), pruned by `prune_dominated`.
    """

    def __init__(self, ctx: IntersectionContext):
        self.nbr = ctx.nbr
        self.full = ctx.full_mask()
        self.points, self.cov = prune_dominated(*cand.candidate_rows(ctx.objs, ctx.arrays))
        self.inc = _transpose(self.cov, ctx.n)

    def restrict(self, mask: int) -> int:
        """The mask of the rows of the table within `mask`, pruned again as
        `prune_dominated` would: a row with nonzero masked coverage is
        dropped when another row's masked coverage holds all of it and
        either differs from it or comes before it (the rows are sorted by
        point).  The rows that pierce `mask` are the union of its objects'
        `inc`; of those with equal masked coverage only the first can stay.
        The whole family keeps every row: the table is pruned on it."""
        inc, cov = self.inc, self.cov
        if mask == self.full:
            return (1 << len(cov)) - 1
        live = 0
        for o in _bits(mask):
            live |= inc[o]
        first = {}
        for r in _bits(live):
            first.setdefault(cov[r] & mask, r)
        return _undominated(inc, first)

    def greedy(self, mask: int, kept: int) -> List[int]:
        """Greedy piercing of `mask` by the rows of `kept` (its
        `restrict(mask)`); returns the picked rows.

        Rounds: take the smallest unpierced object, then pierce its whole
        unpierced neighbourhood, each time with the first row of greatest
        gain.  Only the rows in the `inc` of an object still to do gain, so
        only they are scored, in row order.  The result is feasible, so its
        size bounds Pierce from above.
        """
        inc, cov = self.inc, self.cov
        picked: List[int] = []
        unpierced = mask
        while unpierced:
            o = (unpierced & -unpierced).bit_length() - 1
            todo = self.nbr[o] & unpierced
            while todo:
                rows = 0
                for j in _bits(todo):
                    rows |= inc[j]
                best = gain = 0
                for r in _bits(rows & kept):
                    g = (cov[r] & todo).bit_count()
                    if g > gain:
                        best, gain = r, g
                assert gain, "candidate set must cover every object"
                picked.append(best)
                unpierced &= ~cov[best]
                todo &= ~cov[best]
        return picked


def _transpose(masks: Sequence[int], n: int) -> List[int]:
    """Per bit j < n, the mask of the indices of `masks` that hold bit j."""
    nbytes = -(-n // 8)
    packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), np.uint8)
    bits = np.unpackbits(packed.reshape(len(masks), nbytes), axis=1, count=n, bitorder="little")
    return rows_to_masks(bits.T)


def _undominated(inc: Sequence[int], first: dict) -> int:
    """The mask of the rows of `first` (distinct nonzero coverage: row)
    that no other of them holds: the rows of `first` in the `inc` of every
    object of a row's coverage hold it, so it stays when they are it alone."""
    rows = 0
    for r in first.values():
        rows |= 1 << r
    kept = 0
    for c, r in first.items():
        held, bit = rows, 1 << r
        while c:  # over the bits of c, without a generator per row
            low = c & -c
            held &= inc[low.bit_length() - 1]
            if held == bit:
                kept |= bit
                break
            c ^= low
    return kept


# Balls up to which `_ball_matrix` tests every pair in one broadcast; a larger
# family is swept on axis 0.  On random balls d=2 the sweep overtook the
# broadcast near 90 balls at density 1 and not yet at 128 at density 8; at the
# 26-30 balls of the exact workloads it took 3x the broadcast's time (2-core
# x86 VM, CPython 3.11, numpy 2.4).
_DENSE_BALLS = 128
# Candidate pairs per ball that one pass of the sweep takes: about 50 bytes a
# pair, so a pass holds about what three float rows of 128 per ball would.
_SWEEP_PAIRS = 64


def _intersection_matrix(shapes: ShapeArrays) -> np.ndarray:
    """Boolean n x n array of `geometry.intersects` (every object meets itself);
    a family of one shape gets its kernel's array, without the scatter.

    Ball tests square as the `geometry` module states.  A ball-box offset
    is `_dist2_point_box`'s `max(l - x, x - h, 0)`; boxes compare
    `al <= bh + TOL and bl <= ah + TOL`.  Ball pairs go through
    `_ball_matrix`.
    """
    rows, d = shapes.rows, shapes.dim
    ball = shapes.ball
    if ball.all():
        return _ball_matrix(rows[:, :d], rows[:, -1])
    lo, hi = rows[:, :d], rows[:, d:-1]
    if not ball.any():
        return _box_matrix(lo, hi)
    balls, boxes = np.flatnonzero(ball), np.flatnonzero(~ball)
    c, r = lo[balls], rows[balls, -1]
    lo, hi = lo[boxes], hi[boxes]
    hit = np.ones((len(ball), len(ball)), dtype=bool)
    hit[np.ix_(balls, balls)] = _ball_matrix(c, r)
    hit[np.ix_(boxes, boxes)] = _box_matrix(lo, hi)
    d2 = np.zeros((len(balls), len(boxes)))
    for a in range(d):
        x = c[:, a, None]
        offset = np.maximum(np.maximum(lo[:, a] - x, x - hi[:, a]), 0.0)
        d2 += offset * offset
    limit = r + TOL
    meet = d2 <= (limit * limit)[:, None]
    hit[np.ix_(balls, boxes)] = meet
    hit[np.ix_(boxes, balls)] = meet.T
    return hit


def _box_matrix(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """`intersects` of every pair of boxes with corners `lo` and `hi`: box
    i's low reaches box j's high (plus TOL) on every axis, and j's reaches
    i's, which is the transpose."""
    hi = hi + TOL
    reach = np.ones((len(lo), len(lo)), dtype=bool)
    for a in range(lo.shape[1]):
        reach &= lo[:, a, None] <= hi[:, a]
    return reach & reach.T


def _ball_matrix(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """`intersects` of every pair of balls with centres `c` and radii `r`.

    Up to `_DENSE_BALLS` balls, every pair in one broadcast.  More are swept
    (Bentley, Stanat and Williams, 1977): the centres are sorted on axis 0,
    and ball i is tested only against the balls after it whose axis-0
    coordinate is at most `x_i + w_i`, its window `w_i = (r_i + r_max +
    TOL) * (1 + 1e-6)`, or inf where `w_i * w_i` overflows.  Those pairs
    get the predicate's float operations, so the answer is bit for bit the
    broadcast's.  The window drops no pair that meets: rounding is
    monotone, so a pair whose squared offsets sum to at most its limit L
    squared has `|offset_0| <= L * (1 + 2**-52) < w_i` (L is at most
    `r_i + r_max + TOL`, rounded alike), so the exact difference of the two
    coordinates is at most `w_i` and the later one at most `fl(x_i + w_i)`.
    A limit whose square overflows meets everything (`inf <= inf`), which
    is why such a window is inf; `w_i` squares to inf whenever that limit
    does.  Of a pair, the ball first in the sorted order tests it.  The
    pairs are taken `_SWEEP_PAIRS` per ball at a time, so a family whose
    windows hold most of it (one huge ball, centres on one axis-0 line)
    needs no array of all its pairs.
    """
    m, d = c.shape
    if m <= _DENSE_BALLS:
        t, d2, lim2 = np.zeros((3, m, m))
        for a in range(d):
            np.subtract(c[:, a, None], c[:, a], out=t)
            d2 += np.multiply(t, t, out=t)
        np.add(r[:, None], r, out=lim2)
        lim2 += TOL
        np.multiply(lim2, lim2, out=lim2)
        return np.less_equal(d2, lim2)
    # The sweep works in sorted order: `cs[a]` and `rs` hold the sorted
    # balls' coordinates on axis a and radii.
    order = np.argsort(c[:, 0], kind="stable")
    cs, rs = c.T[:, order], r[order]
    w = rs + rs.max()
    w += TOL
    w *= 1.0 + 1e-6
    with np.errstate(over="ignore"):
        w[np.isinf(w * w)] = np.inf
    counts = np.searchsorted(cs[0], cs[0] + w, side="right")
    counts -= np.arange(1, m + 1)
    ends = np.cumsum(counts)
    hit = np.zeros(m * m, dtype=bool)
    hit[:: m + 1] = True
    start = 0
    while start < m:
        # Balls start to stop - 1 hold at most `_SWEEP_PAIRS * m` pairs (one
        # ball has fewer than m); `first` and `second` list them, ball p's
        # k-th being (p, p + 1 + k).
        done = ends[start - 1] if start else 0
        stop = int(np.searchsorted(ends, done + _SWEEP_PAIRS * m, side="right"))
        k = counts[start:stop]
        first = np.repeat(np.arange(start, stop), k)
        second = np.repeat(np.arange(start + 1, stop + 1) - (ends[start:stop] - k - done), k)
        second += np.arange(len(second))
        d2 = np.zeros(len(first))
        for a in range(d):
            t = cs[a].take(first)
            t -= cs[a].take(second)
            t *= t
            d2 += t
        lim2 = rs.take(first)
        lim2 += rs.take(second)
        lim2 += TOL
        lim2 *= lim2
        meet = d2 <= lim2
        i, j = order.take(first[meet]), order.take(second[meet])
        hit[i * m + j] = hit[j * m + i] = True
        start = stop
    return hit.reshape(m, m)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_ids(mask: int) -> List[int]:
    return list(_bits(mask))


def greedy_pack(objs: Sequence[FatObject]) -> MeasureEstimate:
    """Maximal independent set, smallest object first; a lower bound on Pack."""
    ctx = IntersectionContext(objs)
    value, chosen = ctx.greedy_pack_mask(ctx.full_mask())
    return MeasureEstimate(value=value, witness=ctx.input_ids(chosen))


def greedy_pierce(objs: Sequence[FatObject]) -> MeasureEstimate:
    """Feasible piercing point set, a constant-factor upper bound on Pierce.

    `PierceTable.greedy` over the family's whole table.
    """
    ctx = IntersectionContext(objs)
    table = PierceTable(ctx)
    picked = table.greedy(ctx.full_mask(), table.restrict(ctx.full_mask()))
    return MeasureEstimate(value=len(picked), witness=[table.points[k] for k in picked])


def exact_small_pack(objs: Sequence[FatObject], cap: int):
    """Exact Pack if it is <= cap, else OVERFLOW."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    ctx = IntersectionContext(objs)
    value, chosen = ctx.exact_pack_mask(ctx.full_mask())
    if value > cap:
        return OVERFLOW
    return MeasureEstimate(value=value, witness=ctx.input_ids(chosen))


def exact_small_pierce(objs: Sequence[FatObject], cap: int):
    """Exact Pierce if it is <= cap, else OVERFLOW.

    The exact piercing search (`solver._PierceSearch`) on the whole family,
    under the default `SolveConfig`.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    from .solver import SolveConfig, _PierceSearch  # solver imports this module

    ctx = IntersectionContext(objs)
    search = _PierceSearch(ctx, SolveConfig())
    picked = search.run(ctx.full_mask())[0]
    if len(picked) > cap:
        return OVERFLOW
    return MeasureEstimate(value=len(picked), witness=search.output(picked))


def prune_dominated(points: Sequence[Point], cov: Sequence[int]):
    """Drop candidate points whose coverage is contained in another's.

    Returns (points, coverage masks) sorted by point: each nonzero coverage
    that no other coverage strictly contains, with the lexicographically
    smallest point that has it, so the result is deterministic.  Coverages
    are deduplicated first and sorted by point; a row is dominated when the
    AND of the incidence index over its objects holds another row.  It
    builds `PierceTable`s, whose `restrict` prunes the same way.
    """
    first = {}
    for p, c in zip(points, cov):
        if c:
            q = first.get(c)
            if q is None or p < q:
                first[c] = p
    rows = sorted((p, c) for c, p in first.items())
    cov = [c for _, c in rows]
    inc = _transpose(cov, max(c.bit_length() for c in cov) if cov else 0)
    kept = mask_to_ids(_undominated(inc, {c: r for r, c in enumerate(cov)}))
    return [rows[r][0] for r in kept], [cov[r] for r in kept]
