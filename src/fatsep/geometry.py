"""Geometric primitives: balls, axis-aligned boxes, and box regions.

All predicates use closed-set semantics with an absolute tolerance TOL on
boundary coincidences; exact touches are resolved conservatively (tangent
shapes intersect, objects coinciding with a region face are Boundary).
A ball test squares by multiplication: it sums `t * t` over the axis
offsets t in axis order and compares the sum with `limit * limit`, where
limit is the radius (or the radii sum) plus TOL.  A square past the float
range is inf, so such a pair is apart.  Every numpy kernel that answers a
ball test does the same float operations, so it agrees with these
predicates bit for bit.  Everything here is immutable and pure.
`ShapeArrays` lays a family out as the arrays every numpy kernel elsewhere
reads, and `rows_to_masks` turns those kernels' boolean arrays into the
Python-int bitmasks the searches work on.  `to_words` packs them into rows
of uint64 words instead, for the candidate sweep, and `words_to_masks`
turns those into the same bitmasks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from typing import List, Sequence, Tuple, Union

import numpy as np

TOL = 1e-9

# Collections stay fat only while box aspect ratios are bounded.
MAX_BOX_ASPECT = 2.0

Point = Tuple[float, ...]


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Ball:
    center: Point
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if not all(math.isfinite(c) for c in self.center):
            raise ValueError("ball center must be finite")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError("ball radius must be positive and finite")

    @property
    def dim(self) -> int:
        return len(self.center)


@dataclass(frozen=True)
class AxisBox:
    low: Point
    high: Point

    def __post_init__(self):
        object.__setattr__(self, "low", tuple(float(c) for c in self.low))
        object.__setattr__(self, "high", tuple(float(c) for c in self.high))
        if len(self.low) != len(self.high):
            raise DimensionMismatchError("low/high dimension mismatch")
        sides = [h - l for l, h in zip(self.low, self.high)]
        if not all(math.isfinite(s) and s > 0 for s in sides):
            raise ValueError("box must have positive finite extent on every axis")
        if max(sides) > MAX_BOX_ASPECT * min(sides) + TOL:
            raise ValueError(
                "box aspect ratio %.3f exceeds %.1f; collection would not be fat"
                % (max(sides) / min(sides), MAX_BOX_ASPECT)
            )

    @property
    def dim(self) -> int:
        return len(self.low)


FatObject = Union[Ball, AxisBox]


@dataclass(frozen=True)
class BoxRegion:
    """An axis-aligned box used as a candidate separator region."""

    low: Point
    high: Point

    def __post_init__(self):
        object.__setattr__(self, "low", tuple(float(c) for c in self.low))
        object.__setattr__(self, "high", tuple(float(c) for c in self.high))
        if len(self.low) != len(self.high):
            raise DimensionMismatchError("low/high dimension mismatch")
        if not all(h > l for l, h in zip(self.low, self.high)):
            raise ValueError("region must have positive extent on every axis")

    @property
    def dim(self) -> int:
        return len(self.low)

    @property
    def sides(self) -> Tuple[float, ...]:
        return tuple(h - l for l, h in zip(self.low, self.high))

    @property
    def longest_side(self) -> float:
        return max(self.sides)

    @property
    def center(self) -> Point:
        return tuple((l + h) / 2.0 for l, h in zip(self.low, self.high))


class RegionClass(Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"
    BOUNDARY = "boundary"


def size(obj: FatObject) -> float:
    """Side of the smallest enclosing axis-aligned cube."""
    if isinstance(obj, Ball):
        return 2.0 * obj.radius
    return max(h - l for l, h in zip(obj.low, obj.high))


def center(obj: FatObject) -> Point:
    if isinstance(obj, Ball):
        return obj.center
    return tuple((l + h) / 2.0 for l, h in zip(obj.low, obj.high))


def bounding_low_high(obj: FatObject) -> Tuple[Point, Point]:
    if isinstance(obj, Ball):
        return (
            tuple(c - obj.radius for c in obj.center),
            tuple(c + obj.radius for c in obj.center),
        )
    return obj.low, obj.high


def _check_same_dim(a, b):
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def _dist2(p: Point, q: Point) -> float:
    # A loop, not `sum`: from CPython 3.12 `sum` compensates float rounding,
    # which the kernels' plain additions do not.
    s = 0.0
    for x, y in zip(p, q):
        t = x - y
        s += t * t
    return s


def _dist2_point_box(p: Point, low: Point, high: Point) -> float:
    s = 0.0
    for x, l, h in zip(p, low, high):
        t = max(l - x, x - h, 0.0)
        s += t * t
    return s


def _within(d2: float, limit: float) -> bool:
    return d2 <= limit * limit


def contains_point(obj: FatObject, p: Point) -> bool:
    """Closed-set membership of a point in an object (tolerance TOL)."""
    if isinstance(obj, Ball):
        return _within(_dist2(p, obj.center), obj.radius + TOL)
    return all(l - TOL <= x <= h + TOL for x, l, h in zip(p, obj.low, obj.high))


def intersects(a: FatObject, b: FatObject) -> bool:
    """True iff the closed shapes share at least one point."""
    _check_same_dim(a, b)
    if isinstance(a, Ball) and isinstance(b, Ball):
        return _within(_dist2(a.center, b.center), a.radius + b.radius + TOL)
    if isinstance(a, Ball):
        return _within(_dist2_point_box(a.center, b.low, b.high), a.radius + TOL)
    if isinstance(b, Ball):
        return _within(_dist2_point_box(b.center, a.low, a.high), b.radius + TOL)
    return all(
        al <= bh + TOL and bl <= ah + TOL
        for al, ah, bl, bh in zip(a.low, a.high, b.low, b.high)
    )


class ShapeArrays:
    """A family laid out as arrays, one row per object, for the numpy kernels.

    `rows` holds one flat row per object: a ball's center twice and its
    radius, a box's corners and NaN (radii are finite, so NaN marks the
    boxes).  The rest is read from it, the layout on first use: `ball` flags
    the balls; `radius` holds their radii (NaN for boxes); `sizes` holds
    `size(o)`, `center` `center(o)`, and `low`/`high` the corners of
    `bounding_low_high(o)`, with the same float operations, so every entry
    equals the scalar one bit for bit.  All objects must share one dimension.
    """

    def __init__(self, objs: Sequence[FatObject]):
        rows = [o.center + o.center + (o.radius,) if isinstance(o, Ball) else o.low + o.high + (math.nan,) for o in objs]
        # A row of a d-dimensional object has 2d + 1 entries.
        widths = sorted(set(map(len, rows))) or [1]
        if len(widths) > 1:
            raise DimensionMismatchError(f"dimension mismatch: {widths[0] // 2} vs {widths[-1] // 2}")
        flat = np.fromiter(chain.from_iterable(rows), float, count=len(rows) * widths[0])
        self.rows = flat.reshape(len(rows), widths[0])

    @property
    def dim(self) -> int:
        return self.rows.shape[1] // 2

    @property
    def radius(self) -> np.ndarray:
        return self.rows[:, -1]

    @cached_property
    def ball(self) -> np.ndarray:
        return ~np.isnan(self.radius)

    @property
    def sizes(self) -> np.ndarray:
        """`size` of every object: a box's longest side, or a ball's 2r (a
        ball's row has sides 0, and `fmax` passes over a box's NaN)."""
        d = self.dim
        sides = self.rows[:, d:-1] - self.rows[:, :d]
        sizes = 2.0 * self.radius
        for a in range(d):
            np.fmax(sizes, sides[:, a], out=sizes)
        return sizes

    @cached_property
    def center(self) -> np.ndarray:
        d = self.dim
        lo, hi = self.rows[:, :d], self.rows[:, d:-1]
        return np.where(self.ball[:, None], lo, (lo + hi) / 2.0)

    @cached_property
    def low(self) -> np.ndarray:
        lo = self.rows[:, : self.dim]
        return np.where(self.ball[:, None], lo - self.radius[:, None], lo)

    @cached_property
    def high(self) -> np.ndarray:
        hi = self.rows[:, self.dim : -1]
        return np.where(self.ball[:, None], hi + self.radius[:, None], hi)

    def take(self, rows: np.ndarray) -> "ShapeArrays":
        """The layout of the objects `rows` selects (indices, in that order,
        or a boolean mask): the rows a fresh layout of them holds, bit for
        bit, with the fields already read taken along."""
        sub = object.__new__(ShapeArrays)
        for name, value in vars(self).items():
            setattr(sub, name, value[rows])
        return sub


def to_words(rows: np.ndarray) -> np.ndarray:
    """Uint64 word rows of a 2-d boolean array: bit j of a row is column j,
    in word j // 64.  Every row gets at least one word, so a family of no
    objects still has masks to AND."""
    m, n = rows.shape
    packed = np.zeros((m, 8 * max(1, -(-n // 64))), dtype=np.uint8)
    packed[:, : -(-n // 8)] = np.packbits(rows, axis=1, bitorder="little")
    return packed.view("<u8")


def words_to_masks(words: np.ndarray) -> List[int]:
    """Python-int bitmask per word row of `to_words`."""
    masks = words[:, -1].tolist()
    for w in range(words.shape[1] - 2, -1, -1):
        masks = [m << 64 | low for m, low in zip(masks, words[:, w].tolist())]
    return masks


def rows_to_masks(rows: np.ndarray) -> List[int]:
    """Bitmask per row of a 2-d boolean or 0/1 array (bit j = column j).

    The rows are packed from a C-ordered copy (numpy packs strided rows,
    such as a column selection's, several times slower) and read as one
    bytes object per row."""
    m, n = rows.shape
    nbytes = -(-n // 8)
    if not nbytes:
        return [0] * m
    packed = np.packbits(np.ascontiguousarray(rows), axis=1, bitorder="little")
    return list(map(int.from_bytes, packed.view(f"V{nbytes}").ravel().tolist(), repeat("little")))


def classify(obj: FatObject, box: BoxRegion) -> RegionClass:
    """Inside (strictly interior), Outside (disjoint), or Boundary.

    Coincidences within TOL of a face count as Boundary.
    """
    _check_same_dim(obj, box)
    olow, ohigh = bounding_low_high(obj)
    if isinstance(obj, Ball):
        if not _within(_dist2_point_box(obj.center, box.low, box.high), obj.radius + TOL):
            return RegionClass.OUTSIDE
    else:
        for ol, oh, l, h in zip(olow, ohigh, box.low, box.high):
            if oh < l - TOL or ol > h + TOL:
                return RegionClass.OUTSIDE
    inside = all(
        ol >= l + TOL and oh <= h - TOL
        for ol, oh, l, h in zip(olow, ohigh, box.low, box.high)
    )
    return RegionClass.INSIDE if inside else RegionClass.BOUNDARY


def magnify(box: BoxRegion, m: float) -> BoxRegion:
    """Scale every side by m about the box center."""
    if m < 1.0 - TOL:
        raise ValueError(f"magnification factor must be >= 1, got {m}")
    c = box.center
    half = [m * s / 2.0 for s in box.sides]
    return BoxRegion(
        tuple(x - h for x, h in zip(c, half)),
        tuple(x + h for x, h in zip(c, half)),
    )


def bounding_region(objs) -> BoxRegion:
    """Smallest BoxRegion containing every object (degenerate axes padded)."""
    if not objs:
        raise ValueError("no objects")
    d = objs[0].dim
    lo = [math.inf] * d
    hi = [-math.inf] * d
    for o in objs:
        olow, ohigh = bounding_low_high(o)
        for i in range(d):
            lo[i] = min(lo[i], olow[i])
            hi[i] = max(hi[i], ohigh[i])
    for i in range(d):
        if hi[i] - lo[i] <= 0:
            lo[i] -= 0.5
            hi[i] += 0.5
    return BoxRegion(tuple(lo), tuple(hi))
