"""Measure-balanced box separators for fat object collections.

Pipeline: find an (approximately) minimum-volume box whose center measure
reaches a third of the total, sweep concentric magnified shells to find the
one crossed by the least measure, then classify every object against that
shell box.  No hard balance guarantee is promised; callers verify balance
against `balance_cap` and, when it fails, pivot: split off one object as
the boundary.

`separate` splits a `Subfamily`, a context read through a mask: the solvers
pass their own context and a subproblem's mask, so a split builds no
context and no tables; an object list gets a context of its own.  Both
stages use the scalar predicates' float operations, bit for bit.  The
base-box search reads the mask's objects in size-rank order only, on a
ladder of sides from their centres' extent down, so its cubes do not depend
on the order the objects were given in.  It ANDs the mask with the
context's prefix masks (`ctx.rank_axes`) of the runs of sorted centre
coordinates a cube holds, so a cube's centre set is a bitmask without a
cube-by-centre array, and a rung stops at its first achieving cube.  A
packing holds at most one object of each clique of `ctx.cliques` cut to the
mask, so once per search every cube gets the side below which it holds
centres of fewer cliques than the target; a rung walks only the cubes at or
above theirs, each walk being the context's one greedy packing walk
(`ctx.greedy_pack_mask`, the lowest unblocked bits in size rank) over the
cube's centre set.  No cube is tried below the lowest rung any threshold
admits, so that rung (a `bisect_left` over the sides) is probed first,
and a cube found there is on the smallest achieving rung of the whole
ladder; only when it fails does a second `bisect_left` run over the rungs'
outcomes.  The greedy measure is not monotone in the side (a
larger cube can hold centres whose greedy walk picks fewer), so it
promises less: its rung achieves and the next lower one does not.  The
ladder is not listed: the search works out each rung it probes.
`shell_sweep` builds the corners of all its shells in one array, with
`magnify`'s float operations, classifies against them in one `_classify`
call and returns the chosen shell's row, which `separate` takes as its
classification: the only one it makes, also when the centres coincide (the
family is then a clique, so its greedy measure is 1 and the sweep has one
shell, at m = 1).  A `SeparatorResult` holds its regions as masks over the
context, their ids (given positions) derived from them, and measure values
only.
"""
from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .geometry import (
    TOL,
    BoxRegion,
    DimensionMismatchError,
    FatObject,
    ShapeArrays,
    magnify,
)
from .measure import IntersectionContext, MeasureEstimate, Subfamily


# Ratio between consecutive cube sides on `find_base_box`'s ladder.
SIDE_SEARCH_RATIO = 1.05
# Anchors per block of `_min_sides` (_DIST_ROWS x cliques arrays).
_DIST_ROWS = 64


@dataclass
class SeparatorConfig:
    epsilon: float = 0.25
    balance_cap: float = 0.8

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 0.5):
            raise ValueError("epsilon must lie in (0, 1/2]")
        if not (0.0 < self.balance_cap <= 1.0):
            raise ValueError("balance_cap must lie in (0, 1]")


@dataclass
class SeparatorResult:
    """A split of `family`, its regions as masks over the family's context."""

    box: BoxRegion
    base_box: BoxRegion
    m_star: float
    family: Subfamily
    inside: int
    outside: int
    boundary: int
    mu_total: MeasureEstimate
    mu_inside: MeasureEstimate
    mu_outside: MeasureEstimate
    mu_boundary: MeasureEstimate
    degenerate: bool = False

    def _ids(self, mask: int) -> List[int]:
        """The given positions in `family` of `mask`'s objects, sorted."""
        return [k for k, i in enumerate(self.family.given.tolist()) if mask >> i & 1]

    inside_ids = property(lambda self: self._ids(self.inside))
    outside_ids = property(lambda self: self._ids(self.outside))
    boundary_ids = property(lambda self: self._ids(self.boundary))

    def unbalanced(self, balance_cap: float) -> bool:
        """True when recursing on this split does not pay: the centers
        coincide, every object is on the boundary, or one side holds more
        than `balance_cap` of the total measure."""
        return (
            self.degenerate
            or self.boundary == self.family.mask
            or max(self.mu_inside.value, self.mu_outside.value)
            > balance_cap * self.mu_total.value
        )


def _anchors(sub: Subfamily) -> np.ndarray:
    """The cubes' anchors: the mask's centres in size-rank order, then their
    corner."""
    centers = sub.arrays.center
    return np.vstack([centers, centers.min(axis=0)])


def _clique_boxes(sub: Subfamily) -> Tuple[np.ndarray, np.ndarray]:
    """Low and high corners of the centre boxes of `ctx.cliques` cut to the
    mask, the empty cuts dropped: a subset of a clique is a clique."""
    _, _, members, labels = sub.ctx.rank_axes
    kept = sub.member[members]
    starts = np.flatnonzero(np.concatenate([[True], np.diff(labels[kept]) != 0]))
    grouped = sub.ctx.arrays.center[members[kept]]
    return np.minimum.reduceat(grouped, starts), np.maximum.reduceat(grouped, starts)


def _min_sides(sub: Subfamily, anchors: np.ndarray, tau: int) -> np.ndarray:
    """Lower bound on the side at which each candidate cube of `_achieving_box`
    holds centres of tau cliques of `_clique_boxes`, in candidate order.

    Entry 3i + kind bounds the cube centred on (kind 0), low-anchored at
    (kind 1) or high-anchored at (kind 2) anchor i; the last anchor is the
    bounding-box corner, whose cube is low-anchored (entries 3n and 3n + 2
    are inf).  A cube of side s holds a centre of clique q only if the
    anchor's distance to the box of q's centres is at most s/2 + TOL
    (Chebyshev, centred) or s + TOL (one-sided, anchored, inf when q lies
    past TOL beyond the cube's fixed face); the tau-th smallest of these
    distances, read after an in-place sort, gives the bound.  `slack`
    covers the rounding of `c - s/2`, `(c - s) + s`, `± TOL` and the
    differences here: each errs by at most 2^-53 times a magnitude below
    (4d + 1) times the largest centre coordinate (the ladder's sides stay
    at most the centres' extent), and 2^-40 leaves room for thousands of
    them.  Distances are taken `_DIST_ROWS` anchors at a time, in place.
    """
    clique_low, clique_high = _clique_boxes(sub)
    m, d = clique_low.shape
    sides = np.full((len(anchors), 3), np.inf)
    if tau > m:
        return sides.ravel()
    big = float(np.abs(anchors).max())
    slack = 2.0**-40 * (4 * d + 1) * (big + TOL)
    past = TOL + slack
    k = tau - 1
    buffers = np.empty((3, min(len(anchors), _DIST_ROWS), m))
    for start in range(0, len(anchors), _DIST_ROWS):
        block = anchors[start : start + _DIST_ROWS]
        rows = sides[start : start + len(block)]
        # How far each clique's box lies above (up) and below (down) the
        # anchor on its farthest axis.
        up, down, t = buffers[:, : len(block)]
        np.subtract(clique_low[:, 0], block[:, 0, None], out=up)
        np.subtract(block[:, 0, None], clique_high[:, 0], out=down)
        for a in range(1, d):
            np.maximum(up, np.subtract(clique_low[:, a], block[:, a, None], out=t), out=up)
            np.maximum(down, np.subtract(block[:, a, None], clique_high[:, a], out=t), out=down)
        np.maximum(up, down, out=t)
        t.sort(axis=1)
        rows[:, 0] = t[:, k]
        # A clique `past` or more beyond an anchored cube's fixed face gets
        # inf: `copysign` gives +inf or -inf, without a masked store.
        np.maximum(down, np.copysign(np.inf, np.subtract(up, past, out=t), out=t), out=t)
        t.sort(axis=1)
        rows[:, 2] = t[:, k]
        np.maximum(up, np.copysign(np.inf, np.subtract(down, past, out=t), out=t), out=up)
        up.sort(axis=1)
        rows[:, 1] = up[:, k]
    sides -= TOL
    sides[:, 0] *= 2.0
    sides -= slack
    sides[-1, [0, 2]] = np.inf
    return sides.ravel()


def _achieving_box(
    sub: Subfamily, anchors: np.ndarray, s: float, tau: int, min_side: np.ndarray
) -> Optional[BoxRegion]:
    """First candidate cube of side s whose center-measure reaches tau.

    Candidates, in order: the cubes centered on, low-anchored at and
    high-anchored at every object center, in size-rank order, then the cube
    low-anchored at the bounding-box corner (`_anchors`).  Only cubes whose
    `min_side` (`_min_sides`) is at most s can hold centres of tau cliques,
    so only those are tried.  A cube holds the run `[i, j)` of sorted
    coordinates (`ctx.rank_axes`) within `[low - TOL, high + TOL]` on each
    axis (`bisect_left`, `bisect_right`), so its centre set is the mask ANDed
    over axes with `prefixes[j] ^ prefixes[i]`, and its centre measure is
    `ctx.greedy_pack_mask` of that set, the walk every greedy measure here
    takes.
    """
    coords, prefixes, _, _ = sub.ctx.rank_axes
    shifts = (s / 2.0, 0.0, s)
    for k in np.flatnonzero(min_side <= s).tolist():
        i, kind = divmod(k, 3)
        low = [x - shifts[kind] for x in anchors[i].tolist()]
        mask = sub.mask
        for coord, prefix, x in zip(coords, prefixes, low):
            mask &= prefix[bisect_right(coord, x + s + TOL)] ^ prefix[bisect_left(coord, x - TOL)]
        if sub.ctx.greedy_pack_mask(mask)[0] >= tau:
            return BoxRegion(tuple(low), tuple(x + s for x in low))
    return None


def find_base_box(sub: Subfamily, tau: int) -> BoxRegion:
    """Approximately minimum-volume cube whose center measure reaches tau.

    Searches cubes anchored at object centers, with sides on a geometric
    ladder from the centers' extent (the longest side of their bounding box)
    down by `SIDE_SEARCH_RATIO` to no less than `extent * 1e-9`: rung i of
    0 .. steps has the extent over the ratio to the power steps - i, and the
    top rung's corner cube holds every center.  Every candidate cube's
    threshold side (`_min_sides`) is computed once per call, so a rung tries
    only the cubes at or above it, and no cube on a rung below `r_min`, the
    first whose side reaches the smallest threshold, found by `bisect_left`
    over the rungs' sides.  It is probed first: a cube found there lies on
    the smallest achieving rung of the whole ladder.  Otherwise the top rung
    is probed, then a second `bisect_left` over the rungs' outcomes (up to
    `r_min` failing unasked, each rung probed once) finds the rung to
    return.  The greedy measure is not monotone in the side, so that rung
    is one whose next lower rung fails, not always the smallest achieving
    one.  Only the rungs probed are worked out.
    """
    centers = sub.arrays.center
    if len(centers) == 0:
        raise ValueError("no objects")

    extent = float((centers.max(axis=0) - centers.min(axis=0)).max())
    if extent <= 0:
        # All centers coincide: point-like cube around the common center.
        c = centers[0]
        return BoxRegion(tuple(c - TOL), tuple(c + TOL))

    # The floor rises where the coordinates' float grid is coarser, so that
    # every cube keeps sides of positive length.
    floor = max(extent * 1e-9, 2.0**-50 * float(np.abs(centers).max()))
    steps = max(int(math.log(extent / floor) / math.log(SIDE_SEARCH_RATIO)), 0)
    anchors = _anchors(sub)
    min_side = _min_sides(sub, anchors, tau)

    def side(i: int) -> float:
        # Rung i of the ladder, whose top is rung `steps`.
        return extent / SIDE_SEARCH_RATIO ** (steps - i)

    def rung(i: int) -> Optional[BoxRegion]:
        return _achieving_box(sub, anchors, side(i), tau, min_side)

    # `r_min` is steps + 1 when no rung admits a cube.
    low = float(min_side.min())
    r_min = bisect_left(range(steps + 1), True, key=lambda i: side(i) >= low)
    box = rung(r_min) if r_min <= steps else None
    if box is not None:
        return box
    rung = functools.cache(rung)
    if r_min >= steps or rung(steps) is None:
        raise ValueError(f"tau={tau} unreachable even by the bounding cube")
    return rung(bisect_left(range(steps), True, key=lambda i: i > r_min and rung(i) is not None))


# `_classify` codes of `RegionClass.INSIDE`, `.BOUNDARY` and `.OUTSIDE`.
_INSIDE, _BOUNDARY, _OUTSIDE = 0, 1, 2


def _classify(shapes: ShapeArrays, boxes: np.ndarray) -> np.ndarray:
    """Code (`_INSIDE`, `_BOUNDARY` or `_OUTSIDE`) of every object (column)
    against every box (row), equal to `geometry.classify`.  `boxes` holds
    the boxes' corners, boxes x 2 x d (low, then high): in `shell_sweep`,
    its one caller, the shells.

    The float operations are `classify`'s: a ball is outside when its
    squared distance to the box, from `_dist2_point_box`'s offsets squared
    as the `geometry` module states, exceeds `(radius + TOL)` squared; a box
    when on some axis `high < l - TOL` or `low > h + TOL`; an object is
    inside when, on every axis, its bounding corners satisfy
    `low >= l + TOL` and `high <= h - TOL`.
    """
    d = shapes.dim
    if boxes.shape[-1] != d:
        raise DimensionMismatchError(f"dimension mismatch: {d} vs {boxes.shape[-1]}")
    blow, bhigh = boxes[:, 0], boxes[:, 1]
    balls = shapes.ball
    ball_center = shapes.center[balls]
    inside = np.ones((len(boxes), len(balls)), dtype=bool)
    outside = np.zeros_like(inside)
    d2 = np.zeros((len(boxes), len(ball_center)))
    every_ball = balls.all()
    for a in range(d):
        l, h = blow[:, a, None], bhigh[:, a, None]
        inside &= shapes.low[:, a] >= l + TOL
        inside &= shapes.high[:, a] <= h - TOL
        if not every_ball:
            outside |= shapes.high[:, a] < l - TOL
            outside |= shapes.low[:, a] > h + TOL
        x = ball_center[:, a]
        t = np.maximum(np.maximum(l - x, x - h), 0.0)
        d2 += t * t
    # Balls are outside by distance, not by their bounding corners.
    limit = shapes.radius[balls] + TOL
    outside[:, balls] = d2 > limit * limit
    return np.where(outside, _OUTSIDE, np.where(inside, _INSIDE, _BOUNDARY)).astype(np.int8)


def shell_count(d: int, g: int) -> int:
    return int(math.floor((2.0 ** (1.0 / d) - 1.0) * g ** (1.0 / d))) + 1


def shell_sweep(sub: Subfamily, base: BoxRegion, g: int) -> Tuple[float, int, np.ndarray]:
    """Pick the magnification shell crossed by the least greedy measure:
    (m_star, its boundary's greedy measure, its `_classify` row).

    Shells are m_j = 1 + j / g^(1/d) for j = 0 .. floor((2^(1/d)-1) g^(1/d));
    ties resolve to the smallest j.  Their corners are `magnify(base, m_j)`'s
    bit for bit, built in one array (no `BoxRegion` per shell).
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    d = base.dim
    step = 1.0 / g ** (1.0 / d)
    low, high = np.array(base.low), np.array(base.high)
    centre = (low + high) / 2.0
    half = (1.0 + np.arange(shell_count(d, g)) * step)[:, None] * (high - low) / 2.0
    codes = _classify(sub.arrays, np.stack([centre - half, centre + half], axis=1))
    values = [sub.ctx.greedy_pack_mask(mask)[0] for mask in sub.masks(codes == _BOUNDARY)]
    best_j = values.index(min(values))
    return 1.0 + best_j * step, values[best_j], codes[best_j]


def separate(
    family: Union[Subfamily, Sequence[FatObject]],
    cfg: Optional[SeparatorConfig] = None,
) -> SeparatorResult:
    """Full separator: base box, shell sweep (whose row is the
    classification), measures, of a list of objects or a `Subfamily` (say,
    of a solve's own context).  `degenerate` marks coincident centres."""
    cfg = cfg or SeparatorConfig()
    if len(family) < 2:
        raise ValueError("separate needs at least 2 objects")
    sub = family if isinstance(family, Subfamily) else Subfamily(IntersectionContext(family))

    def part_measure(mask: int) -> MeasureEstimate:
        return MeasureEstimate(value=sub.ctx.greedy_pack_mask(mask)[0])

    total = part_measure(sub.mask)
    g = max(total.value, 1)
    tau = int(math.ceil((1.0 + cfg.epsilon) / 3.0 * g))
    tau = max(tau, 1)

    centers = sub.arrays.center
    degenerate = float((centers.max(axis=0) - centers.min(axis=0)).max()) <= 0.0

    base = find_base_box(sub, tau)
    m_star, swept, codes = shell_sweep(sub, base, g)
    inside, outside, boundary = sub.masks(
        np.stack([codes == _INSIDE, codes == _OUTSIDE, codes == _BOUNDARY])
    )

    return SeparatorResult(
        box=magnify(base, m_star),
        base_box=base,
        m_star=m_star,
        family=sub,
        inside=inside,
        outside=outside,
        boundary=boundary,
        mu_total=total,
        mu_inside=part_measure(inside),
        mu_outside=part_measure(outside),
        # The sweep measured its chosen shell's boundary already.
        mu_boundary=MeasureEstimate(value=swept),
        degenerate=degenerate,
    )
