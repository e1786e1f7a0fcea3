"""Finite candidate point sets for piercing.

The candidate set is sound: some optimal piercing of the given objects uses
only returned points.  Boxes (any dimension): the points of the grid of all
per-axis low coordinates that lie in some box, plus object centers — any
pierce point can be pushed to the componentwise maximum of the lows of the
boxes it pierces, which lies in all of them.  The grid is swept axis by
axis: each coordinate value gets the mask of the boxes whose tolerant
interval on that axis holds it (sorted bounds and `bisect`, with the
comparisons of `geometry.contains_point`), and a prefix of axes whose masks
meet in no box is not extended.  Disks (d=2):
the lowest point of each disk plus all pairwise circle intersection points —
the lowest point of any nonempty disk intersection is one of these.

Box coverage masks are the sweep's own (centres read the same per-axis
bounds); disk ones come from numpy, one block of points at a time, with the
float operations of `geometry.contains_point`, so every bit equals its answer.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import reduce
from operator import and_
from typing import List, Sequence, Tuple

import numpy as np

from .geometry import AxisBox, Ball, FatObject, Point, ShapeArrays, TOL, center, rows_to_masks

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


def _box_sweep(objs: Sequence[AxisBox]):
    """The in-box grid points, sorted, as (point, mask) rows (the AND of the
    point's per-axis masks), and the per-axis `mask_at` functions."""
    index = [_axis_index(objs, a) for a in range(objs[0].dim)]
    rows = [((), (1 << len(objs)) - 1)]
    for a, mask_at in enumerate(index):
        column = [(x, mask_at(x)) for x in sorted({o.low[a] for o in objs})]
        rows = [(p + (x,), k) for p, m in rows for x, c in column if (k := m & c)]
    return rows, index


def candidate_pierce_points(objs: Sequence[FatObject]) -> List[Point]:
    """Sound finite candidate set for piercing `objs` (sorted, deduplicated)."""
    if not objs:
        return []
    kinds = {type(o) for o in objs}
    d = objs[0].dim
    if kinds == {AxisBox}:
        grid = [p for p, _ in _box_sweep(objs)[0]]
        centres = {tuple((l + h) / 2.0 for l, h in zip(o.low, o.high)) for o in objs}
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
        for i, a in enumerate(objs):
            for b in objs[i + 1 :]:
                for p in _circle_intersections(a, b):
                    pts.add(p)
    else:
        raise UnsupportedShapeError(
            "piercing candidates require a pure ball or pure box family"
        )
    return sorted(pts)


def candidate_rows(objs: Sequence[FatObject], shapes: ShapeArrays) -> Tuple[List[Point], List[int]]:
    """Unpruned (points, coverage masks) of `objs`, laid out as `shapes`:
    the box sweep's own rows (a centre may repeat a grid point), or the
    disk candidates with the coverage kernel over `shapes`."""
    if objs and not shapes.ball.any():
        rows, index = _box_sweep(objs)
        for c in map(center, objs):
            rows.append((c, reduce(and_, (mask_at(x) for mask_at, x in zip(index, c)))))
        return [p for p, _ in rows], [m for _, m in rows]
    points = candidate_pierce_points(objs)
    return points, _coverage(shapes, points)


def coverage_masks(objs: Sequence[FatObject], points: Sequence[Point]) -> List[int]:
    """Bitmask per point of the objects it pierces (bit i = objs[i])."""
    return _coverage(ShapeArrays(objs), points)


def _coverage(shapes: ShapeArrays, points: Sequence[Point]) -> List[int]:
    """`coverage_masks` over a family's `ShapeArrays`.

    Boxes test `low - TOL <= x <= high + TOL` per axis.  Balls sum the
    squared axis offsets in axis order and compare with `(radius + TOL) **
    2`; squares use `float_power`, which calls the C `pow` that Python's
    `**` calls (numpy's `square` and `power` can round the last bit
    otherwise).
    """
    n = len(shapes.ball)
    ball_ids = np.flatnonzero(shapes.ball)
    box_ids = np.flatnonzero(~shapes.ball)
    centers = shapes.center[ball_ids]
    limits = np.float_power(shapes.radius[ball_ids] + TOL, 2.0)
    lows = shapes.low[box_ids] - TOL
    highs = shapes.high[box_ids] + TOL
    masks: List[int] = []
    for start in range(0, len(points), _CHUNK):
        block = np.array(points[start : start + _CHUNK], dtype=float)
        hit = np.empty((len(block), n), dtype=bool)
        if ball_ids.size:
            d2 = np.zeros((len(block), len(ball_ids)))
            for a in range(block.shape[1]):
                d2 += np.float_power(block[:, a, None] - centers[:, a], 2.0)
            hit[:, ball_ids] = d2 <= limits
        if box_ids.size:
            inside = np.ones((len(block), len(box_ids)), dtype=bool)
            for a in range(block.shape[1]):
                x = block[:, a, None]
                inside &= (lows[:, a] <= x) & (x <= highs[:, a])
            hit[:, box_ids] = inside
        masks.extend(rows_to_masks(hit))
    return masks
