"""Brute-force ground truth for packing and piercing values.

Deliberately independent of the solver machinery: these searches only share
the geometry predicates and the disk candidate construction (whose
soundness is itself cross-checked against a fine grid here).  Box
candidates come from a scalar sweep of this module's own (sorted bounds and
`bisect`), and coverage masks from a scalar `contains_point` loop, not from
the solver's numpy kernels.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import candidates as cand
from .geometry import TOL, AxisBox, Ball, FatObject, Point, center, contains_point, intersects
from .instances import Instance

PACK_GUARD = 24
PIERCE_GUARD = 14

EXHAUSTIVE_SUBSET = "exhaustive_subset"
SET_COVER_EXHAUSTIVE = "set_cover_exhaustive"
FINE_GRID = "fine_grid"


class OracleSizeError(ValueError):
    pass


@dataclass
class OracleResult:
    value: int
    witness: list
    method: str


def _neighbor_masks(objs: Sequence[FatObject], order: Sequence[int]) -> List[int]:
    n = len(objs)
    pos = {v: k for k, v in enumerate(order)}
    nbr = [1 << pos[i] for i in order]
    for a in range(n):
        for b in range(a + 1, n):
            if intersects(objs[order[a]], objs[order[b]]):
                nbr[a] |= 1 << b
                nbr[b] |= 1 << a
    return nbr


def brute_pack(inst: Instance, order: Optional[Sequence[int]] = None) -> OracleResult:
    """Exhaustive maximum independent set in the intersection graph.

    `order` permutes the branching order; the optimum value must not depend
    on it (used by the self-consistency tests).
    """
    objs = inst.objects
    n = len(objs)
    if n > PACK_GUARD:
        raise OracleSizeError(f"brute_pack guard: n={n} > {PACK_GUARD}")
    if order is None:
        order = list(range(n))
    nbr = _neighbor_masks(objs, order)
    memo = {}

    def f(mask: int):
        if not mask:
            return 0, 0
        if mask in memo:
            return memo[mask]
        v = (mask & -mask).bit_length() - 1
        skip_val, skip_wit = f(mask & ~(1 << v))
        take_val, take_wit = f(mask & ~nbr[v])
        if take_val + 1 > skip_val:
            res = (take_val + 1, take_wit | (1 << v))
        else:
            res = (skip_val, skip_wit)
        memo[mask] = res
        return res

    value, wit = f((1 << n) - 1)
    ids = sorted(order[k] for k in range(n) if wit & (1 << k))
    return OracleResult(value=value, witness=ids, method=EXHAUSTIVE_SUBSET)


def _min_cover(masks: List[int], points: List[Point], universe: int):
    """Exact minimum set cover by branch and bound; assumes a cover exists."""
    best_val = universe.bit_count() + 1
    best_pts: List[Point] = []

    # Objects branch in order of fewest covering points.
    counts = {}
    for b in range(universe.bit_length()):
        if universe & (1 << b):
            counts[b] = sum(1 for m in masks if m & (1 << b))

    def rec(uncovered: int, picked: List[Point]):
        nonlocal best_val, best_pts
        if not uncovered:
            if len(picked) < best_val:
                best_val, best_pts = len(picked), list(picked)
            return
        if len(picked) + 1 >= best_val:
            return
        o = min(
            (b for b in counts if uncovered & (1 << b)),
            key=lambda b: (counts[b], b),
        )
        for k, m in enumerate(masks):
            if m & (1 << o):
                picked.append(points[k])
                rec(uncovered & ~m, picked)
                picked.pop()

    rec(universe, [])
    return best_val, best_pts


def _coverage_masks(objs: Sequence[FatObject], points: Sequence[Point]) -> List[int]:
    """Bitmask per point of the objects it pierces (bit i = objs[i])."""
    masks = []
    for p in points:
        m = 0
        for i, o in enumerate(objs):
            if contains_point(o, p):
                m |= 1 << i
        masks.append(m)
    return masks


def _axis_index(objs: Sequence[AxisBox], a: int):
    """`mask_at(x)`: the mask of the boxes with `low - TOL <= x <= high + TOL`
    on axis `a`, from sorted bounds and prefix/suffix OR masks."""
    starts = sorted((o.low[a] - TOL, i) for i, o in enumerate(objs))
    ends = sorted((o.high[a] + TOL, i) for i, o in enumerate(objs))
    # opened[k]: the boxes of the k smallest starts; closing[k]: the boxes
    # of every end from the k-th smallest on.
    opened = [0]
    for _, i in starts:
        opened.append(opened[-1] | 1 << i)
    closing = [0]
    for _, i in reversed(ends):
        closing.append(closing[-1] | 1 << i)
    closing.reverse()
    start_keys = [s for s, _ in starts]
    end_keys = [e for e, _ in ends]
    return lambda x: opened[bisect_right(start_keys, x)] & closing[bisect_left(end_keys, x)]


def _box_sweep(objs: Sequence[AxisBox]) -> List[Point]:
    """The points of the grid of per-axis lows that lie in some box, sorted:
    axis by axis, a prefix whose per-axis masks meet in no box is dropped."""
    rows = [((), (1 << len(objs)) - 1)]
    for a in range(objs[0].dim):
        mask_at = _axis_index(objs, a)
        column = [(x, mask_at(x)) for x in sorted({o.low[a] for o in objs})]
        rows = [(p + (x,), k) for p, m in rows for x, c in column if (k := m & c)]
    return [p for p, _ in rows]


def _pierce_candidates(objs: Sequence[FatObject]) -> List[Point]:
    """`candidates.candidate_pierce_points`, with boxes swept here."""
    if not all(isinstance(o, AxisBox) for o in objs):
        return cand.candidate_pierce_points(objs)
    grid = _box_sweep(objs)
    return sorted(grid + list(set(map(center, objs)).difference(grid)))


def brute_pierce(inst: Instance) -> OracleResult:
    """Exhaustive minimum piercing over the sound candidate point set."""
    objs = inst.objects
    n = len(objs)
    if n > PIERCE_GUARD:
        raise OracleSizeError(f"brute_pierce guard: n={n} > {PIERCE_GUARD}")
    if n == 0:
        return OracleResult(value=0, witness=[], method=SET_COVER_EXHAUSTIVE)
    points = _pierce_candidates(objs)
    cov = _coverage_masks(objs, points)
    by_mask = {}
    for m, p in zip(cov, points):
        if m and (m not in by_mask or p < by_mask[m]):
            by_mask[m] = p
    # Dominated coverage sets can never appear in a minimum cover.
    all_masks = list(by_mask)
    undominated = [
        m for m in all_masks if not any(m != q and m & ~q == 0 for q in all_masks)
    ]
    kept = sorted((by_mask[m], m) for m in undominated)
    masks = [m for _, m in kept]
    pts = [p for p, _ in kept]
    value, wit = _min_cover(masks, pts, (1 << n) - 1)
    return OracleResult(value=value, witness=wit, method=SET_COVER_EXHAUSTIVE)


def fine_grid_pierce(inst: Instance, resolution: float = 1e-3) -> OracleResult:
    """Minimum piercing over a dense grid; d=2 cross-check for candidates.

    Grid step is `resolution` times the bounding-box extent per axis.
    """
    objs = inst.objects
    n = len(objs)
    if inst.dim != 2:
        raise ValueError("fine_grid_pierce supports d=2 only")
    if n > PIERCE_GUARD:
        raise OracleSizeError(f"fine_grid_pierce guard: n={n} > {PIERCE_GUARD}")
    if n == 0:
        return OracleResult(value=0, witness=[], method=FINE_GRID)

    lows = []
    highs = []
    for o in objs:
        lo, hi = (
            (o.low, o.high)
            if isinstance(o, AxisBox)
            else (
                tuple(c - o.radius for c in o.center),
                tuple(c + o.radius for c in o.center),
            )
        )
        lows.append(lo)
        highs.append(hi)
    lo = np.min(np.array(lows), axis=0)
    hi = np.max(np.array(highs), axis=0)
    xs = np.arange(lo[0], hi[0] + 1e-12, max((hi[0] - lo[0]) * resolution, 1e-12))
    ys = np.arange(lo[1], hi[1] + 1e-12, max((hi[1] - lo[1]) * resolution, 1e-12))
    # Anchor grid lines on every object's axis extremes so intersection
    # slivers thinner than the resolution still contain grid points.
    extremes = np.array(lows + highs)
    xs = np.union1d(xs, extremes[:, 0])
    ys = np.union1d(ys, extremes[:, 1])
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    gx = gx.ravel()
    gy = gy.ravel()

    masks_arr = np.zeros(gx.shape, dtype=np.int64)
    for i, o in enumerate(objs):
        if isinstance(o, Ball):
            inside = (gx - o.center[0]) ** 2 + (gy - o.center[1]) ** 2 <= o.radius**2
        else:
            inside = (
                (gx >= o.low[0])
                & (gx <= o.high[0])
                & (gy >= o.low[1])
                & (gy <= o.high[1])
            )
        masks_arr |= inside.astype(np.int64) << i

    uniq, first = np.unique(masks_arr, return_index=True)
    masks = []
    pts = []
    for m, k in zip(uniq.tolist(), first.tolist()):
        if m:
            masks.append(m)
            pts.append((float(gx[k]), float(gy[k])))
    covered = 0
    for m in masks:
        covered |= m
    if covered != (1 << n) - 1:
        raise ValueError("grid resolution too coarse: some object holds no grid point")
    undom = [
        k
        for k, m in enumerate(masks)
        if not any(j != k and m & ~masks[j] == 0 and (masks[j] != m or j < k) for j in range(len(masks)))
    ]
    masks = [masks[k] for k in undom]
    pts = [pts[k] for k in undom]
    value, wit = _min_cover(masks, pts, (1 << n) - 1)
    return OracleResult(value=value, witness=wit, method=FINE_GRID)
