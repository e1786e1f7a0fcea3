"""Packing/piercing measure estimates.

Polynomial-time greedy bounds (smallest-first, id tie-break, fully
deterministic) and exact branch and bound.  The greedy packing value is
always a lower bound on the true packing number; the greedy piercing value
is always a feasible upper bound on the piercing number.  Packing works on
bitmasks over one `IntersectionContext`: the exact solver closes and
enumerates its subproblems with `exact_pack_mask` and `independent_sets`.
The context's neighbourhood masks come from one numpy array per pair of
shapes, with the float operations of `geometry.intersects`, so every bit
equals that predicate's answer.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import candidates as cand
from .geometry import TOL, Ball, DimensionMismatchError, FatObject, Point, rows_to_masks, size


class _Overflow:
    """Sentinel: the exact value exceeds the requested cap."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OVERFLOW"


OVERFLOW = _Overflow()


@dataclass
class MeasureEstimate:
    value: int
    witness: list = field(default_factory=list)


class IntersectionContext:
    """Precomputed sizes, ordering, and closed-neighborhood bitmasks."""

    def __init__(self, objs: Sequence[FatObject]):
        self.objs = list(objs)
        n = len(self.objs)
        self.sizes = [size(o) for o in self.objs]
        self.order = sorted(range(n), key=lambda i: (self.sizes[i], i))
        self.nbr = rows_to_masks(_intersection_matrix(self.objs))

    @property
    def n(self) -> int:
        return len(self.objs)

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def greedy_pack_mask(self, mask: int, stop_at: Optional[int] = None):
        """Smallest-first maximal independent set within `mask`.

        Returns (value, chosen_mask).  With `stop_at`, stops early once that
        many objects are chosen (value is then only a lower bound).
        """
        chosen = 0
        value = 0
        for i in self.order:
            bit = 1 << i
            if mask & bit and not (self.nbr[i] & chosen):
                chosen |= bit
                value += 1
                if stop_at is not None and value >= stop_at:
                    break
        return value, chosen

    def exact_pack_mask(self, mask: int):
        """Exact Pack within `mask`; returns (value, chosen_mask).

        Branches on the closed neighborhood of the smallest remaining object:
        every maximal independent set contains one of those objects, so depth
        equals the solution size.
        """
        order, nbr = self.order, self.nbr
        best_val = -1
        best_wit = 0

        def rec(mask: int, depth: int, picked: int):
            nonlocal best_val, best_wit
            if not mask:
                if depth > best_val:
                    best_val, best_wit = depth, picked
                return
            if depth + mask.bit_count() <= best_val:
                return
            v = next(i for i in order if mask & (1 << i))
            for u in _bits(nbr[v] & mask):
                rec(mask & ~nbr[u], depth + 1, picked | (1 << u))

        rec(mask, 0, 0)
        return best_val, best_wit

    def independent_sets(self, mask: int):
        """Yield every independent subset of `mask` once, as a sorted id list.

        DFS with forward pruning: subsets extend only by non-intersecting,
        higher-id objects, so each subset appears exactly once, the empty set
        first.
        """

        def rec(prefix: List[int], cand: int):
            yield prefix
            for i in _bits(cand):
                higher = ~((1 << (i + 1)) - 1)
                yield from rec(prefix + [i], cand & higher & ~self.nbr[i])

        yield from rec([], mask)


def _intersection_matrix(objs: Sequence[FatObject]) -> np.ndarray:
    """Boolean n x n array of `geometry.intersects` (every object meets itself).

    Squared offsets are summed axis by axis in axis order and taken with
    `float_power`, the C `pow` that Python's `**` calls.  A ball-box offset
    is `_dist2_point_box`'s `l - x` below the box, `x - h` above it and 0
    within; boxes compare `al <= bh + TOL and bl <= ah + TOL`.
    """
    n = len(objs)
    hit = np.ones((n, n), dtype=bool)
    if n < 2:
        return hit
    d = objs[0].dim
    for o in objs:
        if o.dim != d:
            raise DimensionMismatchError(f"dimension mismatch: {d} vs {o.dim}")
    balls = [i for i, o in enumerate(objs) if isinstance(o, Ball)]
    boxes = [i for i, o in enumerate(objs) if not isinstance(o, Ball)]
    c = np.array([objs[i].center for i in balls]).reshape(-1, d)
    r = np.array([objs[i].radius for i in balls])
    lo = np.array([objs[i].low for i in boxes]).reshape(-1, d)
    hi = np.array([objs[i].high for i in boxes]).reshape(-1, d)
    if balls:
        d2 = np.zeros((len(balls), len(balls)))
        term = np.empty_like(d2)
        for a in range(d):
            np.subtract(c[:, a, None], c[:, a], out=term)
            d2 += np.float_power(term, 2.0, out=term)
        limit = np.add(r[:, None], r, out=term)
        limit += TOL
        hit[np.ix_(balls, balls)] = d2 <= np.float_power(limit, 2.0, out=limit)
    if boxes:
        meet = np.ones((len(boxes), len(boxes)), dtype=bool)
        for a in range(d):
            meet &= lo[:, a, None] <= hi[:, a] + TOL
            meet &= lo[:, a] <= hi[:, a, None] + TOL
        hit[np.ix_(boxes, boxes)] = meet
    if balls and boxes:
        d2 = np.zeros((len(balls), len(boxes)))
        for a in range(d):
            x = c[:, a, None]
            offset = np.maximum(np.maximum(lo[:, a] - x, x - hi[:, a]), 0.0)
            d2 += np.float_power(offset, 2.0)
        meet = d2 <= np.float_power(r + TOL, 2.0)[:, None]
        hit[np.ix_(balls, boxes)] = meet
        hit[np.ix_(boxes, balls)] = meet.T
    return hit


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_to_ids(mask: int) -> List[int]:
    return list(_bits(mask))


def greedy_pack(
    objs: Sequence[FatObject], ctx: Optional[IntersectionContext] = None
) -> MeasureEstimate:
    """Maximal independent set, smallest object first; a lower bound on Pack."""
    if ctx is None:
        ctx = IntersectionContext(objs)
    value, chosen = ctx.greedy_pack_mask(ctx.full_mask())
    return MeasureEstimate(value=value, witness=mask_to_ids(chosen))


def greedy_pierce(objs: Sequence[FatObject]) -> MeasureEstimate:
    """Feasible piercing point set, a constant-factor upper bound on Pierce.

    Rounds: take the smallest unpierced object, then cover its whole
    unpierced neighborhood with greedily chosen candidate points.
    """
    n = len(objs)
    if n == 0:
        return MeasureEstimate(value=0, witness=[])
    ctx = IntersectionContext(objs)
    points = cand.candidate_pierce_points(objs)
    cov = cand.coverage_masks(objs, points)
    unpierced = ctx.full_mask()
    picked: List[Point] = []
    while unpierced:
        o = next(i for i in ctx.order if unpierced & (1 << i))
        todo = ctx.nbr[o] & unpierced
        while todo:
            best = None
            for k, p in enumerate(points):
                gain = (cov[k] & todo).bit_count()
                if gain and (best is None or gain > best[0]):
                    best = (gain, k)
            assert best is not None, "candidate set must cover every object"
            k = best[1]
            picked.append(points[k])
            unpierced &= ~cov[k]
            todo &= ~cov[k]
    return MeasureEstimate(value=len(picked), witness=picked)


def exact_small_pack(objs: Sequence[FatObject], cap: int):
    """Exact Pack if it is <= cap, else OVERFLOW."""
    if cap < 0:
        raise ValueError("cap must be >= 0")
    ctx = IntersectionContext(objs)
    value, chosen = ctx.exact_pack_mask(ctx.full_mask())
    if value > cap:
        return OVERFLOW
    return MeasureEstimate(value=value, witness=mask_to_ids(chosen))


def exact_small_pierce(objs: Sequence[FatObject], cap: int):
    """Exact Pierce if it is <= cap, else OVERFLOW.

    Set-cover branch over candidate points inside the smallest uncovered
    object; strictly dominated candidates are dropped up front.
    """
    if cap < 0:
        raise ValueError("cap must be >= 0")
    n = len(objs)
    if n == 0:
        return MeasureEstimate(value=0, witness=[])
    order = sorted(range(n), key=lambda i: (size(objs[i]), i))
    points = cand.candidate_pierce_points(objs)
    cov = cand.coverage_masks(objs, points)
    points, cov = prune_dominated(points, cov)

    best_val = cap + 1
    best_pts: List[Point] = []

    def rec(uncovered: int, count: int, picked: List[Point]):
        nonlocal best_val, best_pts
        if not uncovered:
            if count < best_val:
                best_val, best_pts = count, list(picked)
            return
        if count + 1 >= best_val:
            return
        o = next(i for i in order if uncovered & (1 << i))
        obit = 1 << o
        for k in range(len(points)):
            if cov[k] & obit:
                picked.append(points[k])
                rec(uncovered & ~cov[k], count + 1, picked)
                picked.pop()

    rec((1 << n) - 1, 0, [])
    if best_val > cap:
        return OVERFLOW
    return MeasureEstimate(value=best_val, witness=best_pts)


def prune_dominated(points: Sequence[Point], cov: Sequence[int]):
    """Drop candidate points whose coverage is contained in another's.

    On equal coverage the lexicographically smallest point is kept, so the
    result is deterministic.
    """
    keep_points: List[Point] = []
    keep_cov: List[int] = []
    order = sorted(range(len(points)), key=lambda k: points[k])
    for k in order:
        c = cov[k]
        if not c:
            continue
        if any(c & ~kc == 0 for kc in keep_cov):
            continue
        # Remove earlier entries now dominated by c (strictly smaller coverage).
        keep = [(p, kc) for p, kc in zip(keep_points, keep_cov) if kc & ~c or kc == c]
        keep_points = [p for p, _ in keep] + [points[k]]
        keep_cov = [kc for _, kc in keep] + [c]
    pair = sorted(zip(keep_points, keep_cov))
    return [p for p, _ in pair], [c for _, c in pair]
