"""Finite candidate point sets for piercing.

The candidate set is sound: some optimal piercing of the given objects uses
only returned points.  Boxes (any dimension): the points of the grid of all
per-axis low coordinates that lie in some box, plus object centers — any
pierce point can be pushed to the componentwise maximum of the lows of the
boxes it pierces, which lies in all of them.  The grid is swept axis by
axis in numpy: each coordinate value gets the uint64 word row of the boxes
whose tolerant interval on that axis holds it (the comparisons of
`geometry.contains_point`), and a prefix of axes whose rows meet in no box
is not extended.  The piercing table needs only the first grid point of
each distinct coverage, so its sweep keeps one prefix per row at every
axis.  Disks (d=2): the lowest point of each disk plus all pairwise circle
intersection points — the lowest point of any nonempty disk intersection is
one of these.  Each pair is intersected in (centre, radius) order, so the
points do not depend on the family's order, bit for bit.

Box grid coverage masks are the sweep's own; the centres' and the disk ones
come from numpy, one block of points at a time, with the same comparisons.
All use the float operations of `geometry.contains_point`, so every bit
equals its answer.
"""
from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from .geometry import (
    AxisBox,
    Ball,
    FatObject,
    Point,
    ShapeArrays,
    TOL,
    center,
    rows_to_masks,
    to_words,
    words_to_masks,
)

# Points per block of the coverage kernel: bounds its temporaries to
# _CHUNK x len(objs) arrays instead of one array over every point.
_CHUNK = 1024


class UnsupportedShapeError(ValueError):
    pass


def _circle_intersections(a: Ball, b: Ball) -> List[Point]:
    (ax, ay), (bx, by) = a.center, b.center
    dx, dy = bx - ax, by - ay
    d = math.hypot(dx, dy)
    if d < TOL:
        return []
    if d > a.radius + b.radius + TOL or d < abs(a.radius - b.radius) - TOL:
        return []
    # Standard two-circle intersection; clamp guards grazing contact.
    t = (a.radius**2 - b.radius**2 + d * d) / (2 * d)
    h2 = max(a.radius**2 - t * t, 0.0)
    h = math.sqrt(h2)
    mx, my = ax + t * dx / d, ay + t * dy / d
    ox, oy = -dy / d * h, dx / d * h
    if h <= TOL:
        return [(mx, my)]
    return [(mx + ox, my + oy), (mx - ox, my - oy)]


# Relative margin of `_circle_pairs`' distance test: numpy's and Python's
# `hypot` differ by a few units in the last place, far below it.
_PAIR_MARGIN = 1e-9


def _circle_pairs(disks: Sequence[Ball]):
    """The pairs i < j of `disks` for which `_circle_intersections` may find
    a point: a pair is ruled out only when its centre distance is past the
    radii's sum, or short of their difference, by the margin, so every
    pair left out has no intersection point.  One block of rows at a time."""
    c = np.array([o.center for o in disks])
    r = np.array([o.radius for o in disks])
    for start in range(0, len(disks), _CHUNK):
        rows = slice(start, start + _CHUNK)
        dist = np.hypot(c[rows, 0, None] - c[:, 0], c[rows, 1, None] - c[:, 1])
        far = dist > (np.add(r[rows, None], r) + TOL) * (1.0 + _PAIR_MARGIN)
        nested = dist < (np.abs(np.subtract(r[rows, None], r)) - TOL) * (1.0 - _PAIR_MARGIN)
        i, j = np.nonzero(~(far | nested))
        i += start
        upper = i < j
        yield from zip(i[upper].tolist(), j[upper].tolist())


def _first_distinct(words: np.ndarray) -> np.ndarray:
    """Ascending indices of the first row of each distinct word row: a
    stable sort brings equal rows together in index order, and a row is
    kept when it differs from its sorted predecessor."""
    order = np.lexsort(words.T)
    ranked = words[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    kept = np.zeros(len(order), dtype=bool)
    kept[order[first]] = True
    return np.flatnonzero(kept)


def _box_sweep(shapes: ShapeArrays, first: bool):
    """The points of the grid of per-axis lows that lie in some box of
    `shapes`, in lexicographic order, and each one's word row of the boxes
    holding it; with `first`, only the first point of each distinct row.

    Each axis' sorted distinct lows get the word row of the boxes with
    `low - TOL <= x <= high + TOL`, and every prefix row is ANDed with each
    of them, dropping the empty results.  Two prefixes with equal rows
    extend to equal rows, the earlier one to the smaller points, so `first`
    can keep only the first prefix of each row at every axis.
    """
    lows, highs = shapes.low - TOL, shapes.high + TOL
    rows = to_words(np.ones((1, len(lows)), dtype=bool))
    coords: List[np.ndarray] = []
    for a in range(shapes.dim):
        xs = np.array(sorted(set(shapes.low[:, a].tolist())))
        column = to_words((lows[:, a] <= xs[:, None]) & (xs[:, None] <= highs[:, a]))
        grown = rows[:, None, :] & column
        prefix, x = np.nonzero(grown.any(axis=2))
        rows = grown[prefix, x]
        coords = [c[prefix] for c in coords] + [xs[x]]
        if first:
            keep = _first_distinct(rows)
            rows, coords = rows[keep], [c[keep] for c in coords]
    return list(zip(*(c.tolist() for c in coords))), rows


def candidate_pierce_points(objs: Sequence[FatObject]) -> List[Point]:
    """Sound finite candidate set for piercing `objs` (sorted, deduplicated)."""
    if not objs:
        return []
    kinds = {type(o) for o in objs}
    d = objs[0].dim
    if kinds == {AxisBox}:
        grid = _box_sweep(ShapeArrays(objs), first=False)[0]
        centres = set(map(center, objs))
        # The grid comes out sorted, so this sort only merges in the centres.
        return sorted(grid + list(centres.difference(grid)))
    pts: set = set()
    if kinds == {Ball}:
        if d != 2:
            raise UnsupportedShapeError(
                "piercing candidates for balls are only available in d=2"
            )
        for o in objs:
            pts.add((o.center[0], o.center[1] - o.radius))
        disks = sorted(objs, key=lambda o: (o.center, o.radius))
        for i, j in _circle_pairs(disks):
            pts.update(_circle_intersections(disks[i], disks[j]))
    else:
        raise UnsupportedShapeError(
            "piercing candidates require a pure ball or pure box family"
        )
    return sorted(pts)


def candidate_rows(objs: Sequence[FatObject], shapes: ShapeArrays) -> Tuple[List[Point], List[int]]:
    """Unpruned (points, coverage masks) of `objs`, laid out as `shapes`:
    for boxes the first grid point of each distinct coverage and then every
    centre (which may repeat a grid point or its coverage), the grid's
    masks the sweep's own and the centres' from the coverage kernel over
    `shapes`, whose box test is the sweep's comparison; or the disk
    candidates, their masks from that kernel too."""
    if objs and not shapes.ball.any():
        grid, rows = _box_sweep(shapes, first=True)
        centres = list(map(tuple, shapes.center.tolist()))
        return grid + centres, words_to_masks(rows) + _coverage(shapes, centres)
    points = candidate_pierce_points(objs)
    return points, _coverage(shapes, points)


def coverage_masks(objs: Sequence[FatObject], points: Sequence[Point]) -> List[int]:
    """Bitmask per point of the objects it pierces (bit i = objs[i])."""
    return _coverage(ShapeArrays(objs), points)


def _coverage(shapes: ShapeArrays, points: Sequence[Point]) -> List[int]:
    """`coverage_masks` over a family's `ShapeArrays`.

    Boxes test `low - TOL <= x <= high + TOL` per axis; balls square as the
    `geometry` module states.
    """
    n = len(shapes.ball)
    ball_ids = np.flatnonzero(shapes.ball)
    box_ids = np.flatnonzero(~shapes.ball)
    centers = shapes.center[ball_ids]
    limits = shapes.radius[ball_ids] + TOL
    limits *= limits
    lows = shapes.low[box_ids] - TOL
    highs = shapes.high[box_ids] + TOL
    masks: List[int] = []
    for start in range(0, len(points), _CHUNK):
        block = np.array(points[start : start + _CHUNK], dtype=float)
        hit = np.empty((len(block), n), dtype=bool)
        if ball_ids.size:
            d2 = np.zeros((len(block), len(ball_ids)))
            for a in range(block.shape[1]):
                t = block[:, a, None] - centers[:, a]
                d2 += t * t
            hit[:, ball_ids] = d2 <= limits
        if box_ids.size:
            inside = np.ones((len(block), len(box_ids)), dtype=bool)
            for a in range(block.shape[1]):
                x = block[:, a, None]
                inside &= (lows[:, a] <= x) & (x <= highs[:, a])
            hit[:, box_ids] = inside
        masks.extend(rows_to_masks(hit))
    return masks
