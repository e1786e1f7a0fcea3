"""Measure-balanced box separators for fat object collections.

Pipeline: find an (approximately) minimum-volume box whose center measure
reaches a third of the total, sweep concentric magnified shells to find the
one crossed by the least measure, then classify every object against that
shell box.  No hard balance guarantee is promised; callers verify balance
against `balance_cap` and fall back to pivot branching when it fails.  The
base-box search tests all candidate cubes of a ladder rung against every
center in one numpy comparison per axis and packs the hits into bitmasks
for the greedy measure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    TOL,
    BoxRegion,
    FatObject,
    RegionClass,
    center,
    classify,
    magnify,
    rows_to_masks,
)
from .measure import IntersectionContext, MeasureEstimate, greedy_pack, mask_to_ids


# Most magnification shells `shell_sweep` tries.
SHELL_SAMPLES_CAP = 64
# Ratio between consecutive cube sides on `find_base_box`'s ladder.
SIDE_SEARCH_RATIO = 1.05


@dataclass
class SeparatorConfig:
    epsilon: float = 0.25
    balance_cap: float = 0.8

    def __post_init__(self):
        if not (0.0 < self.epsilon <= 0.5):
            raise ValueError("epsilon must lie in (0, 1/2]")


@dataclass
class SeparatorResult:
    box: BoxRegion
    base_box: BoxRegion
    m_star: float
    inside_ids: List[int]
    outside_ids: List[int]
    boundary_ids: List[int]
    mu_total: MeasureEstimate
    mu_inside: MeasureEstimate
    mu_outside: MeasureEstimate
    mu_boundary: MeasureEstimate
    degenerate: bool = False

    def unbalanced(self, balance_cap: float) -> bool:
        """True when recursing on this split does not pay: the centers
        coincide, every object is on the boundary, or one side holds more
        than `balance_cap` of the total measure."""
        n = len(self.inside_ids) + len(self.outside_ids) + len(self.boundary_ids)
        return (
            self.degenerate
            or len(self.boundary_ids) == n
            or max(self.mu_inside.value, self.mu_outside.value)
            > balance_cap * self.mu_total.value
        )


def _centers_array(objs: Sequence[FatObject]) -> np.ndarray:
    return np.array([center(o) for o in objs], dtype=float)


def _achieving_box(
    ctx: IntersectionContext, centers: np.ndarray, s: float, tau: int
) -> Optional[BoxRegion]:
    """First candidate cube of side s whose center-measure reaches tau.

    Candidates, in order: the cubes centered on, low-anchored at and
    high-anchored at every object center, then the bounding-box corner.  All
    are tested against every center in one array operation; a candidate
    whose center mask was already tried cannot achieve, so it is skipped.
    """
    n, d = centers.shape
    lows = np.empty((3 * n + 1, d))
    lows[0:-1:3] = centers - s / 2.0
    lows[1:-1:3] = centers
    lows[2:-1:3] = centers - s
    lows[-1] = centers.min(axis=0)
    highs = lows + s
    in_box = np.ones((len(lows), n), dtype=bool)
    for a in range(d):
        in_box &= centers[:, a] >= lows[:, a, None] - TOL
        in_box &= centers[:, a] <= highs[:, a, None] + TOL
    rows = np.flatnonzero(in_box.sum(axis=1) >= tau)
    tried = set()
    for k, mask in zip(rows, rows_to_masks(in_box[rows])):
        if mask in tried:
            continue
        tried.add(mask)
        value, _ = ctx.greedy_pack_mask(mask, stop_at=tau)
        if value >= tau:
            return BoxRegion(tuple(lows[k]), tuple(highs[k]))
    return None


def find_base_box(
    objs: Sequence[FatObject],
    tau: int,
    ctx: Optional[IntersectionContext] = None,
) -> BoxRegion:
    """Approximately minimum-volume cube whose center measure reaches tau.

    Searches cubes with sides on a geometric ladder between the extreme
    pairwise center distances, anchored at object centers.  The smallest
    achieving ladder size is located by bisection (achievability is monotone
    in the side length), so no family member with at most half the volume
    can reach tau.
    """
    if ctx is None:
        ctx = IntersectionContext(objs)
    centers = _centers_array(objs)
    n = len(objs)
    if n == 0:
        raise ValueError("no objects")

    extent = float((centers.max(axis=0) - centers.min(axis=0)).max())
    if extent <= 0:
        # All centers coincide: point-like cube around the common center.
        c = centers[0]
        return BoxRegion(tuple(c - TOL), tuple(c + TOL))

    # Pairwise center distances bound the ladder.
    diffs = centers[:, None, :] - centers[None, :, :]
    dists = np.sqrt((diffs**2).sum(axis=2))
    pos = dists[dists > 0]
    d_min = float(pos.min())
    d_max = float(pos.max())
    s_lo = max(d_min, d_max * 1e-9)

    ratio = SIDE_SEARCH_RATIO
    steps = max(int(math.ceil(math.log(d_max / s_lo) / math.log(ratio))), 0)
    ladder = [s_lo * ratio**j for j in range(steps + 1)]
    if ladder[-1] < d_max:
        ladder.append(d_max)

    if _achieving_box(ctx, centers, ladder[-1], tau) is None:
        raise ValueError(f"tau={tau} unreachable even by the bounding cube")

    lo, hi = 0, len(ladder) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _achieving_box(ctx, centers, ladder[mid], tau) is not None:
            hi = mid
        else:
            lo = mid + 1
    box = _achieving_box(ctx, centers, ladder[lo], tau)
    assert box is not None
    return box


def _shell_boundary_mask(
    objs: Sequence[FatObject], base: BoxRegion, m: float
) -> int:
    box = magnify(base, m)
    mask = 0
    for i, o in enumerate(objs):
        if classify(o, box) is RegionClass.BOUNDARY:
            mask |= 1 << i
    return mask


def shell_count(d: int, g: int) -> int:
    return int(math.floor((2.0 ** (1.0 / d) - 1.0) * g ** (1.0 / d))) + 1


def shell_sweep(
    objs: Sequence[FatObject],
    base: BoxRegion,
    g: int,
    ctx: Optional[IntersectionContext] = None,
) -> Tuple[float, int]:
    """Pick the magnification shell crossed by the least greedy measure.

    Shells are m_j = 1 + j / g^(1/d) for j = 0 .. floor((2^(1/d)-1) g^(1/d)),
    capped at SHELL_SAMPLES_CAP; ties resolve to the smallest j.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    if ctx is None:
        ctx = IntersectionContext(objs)
    d = base.dim
    count = min(shell_count(d, g), SHELL_SAMPLES_CAP)
    step = 1.0 / g ** (1.0 / d)
    best_j = 0
    best_val = None
    for j in range(count):
        m = 1.0 + j * step
        mask = _shell_boundary_mask(objs, base, m)
        value, _ = ctx.greedy_pack_mask(mask)
        if best_val is None or value < best_val:
            best_j, best_val = j, value
    return 1.0 + best_j * step, int(best_val)


def separate(
    objs: Sequence[FatObject], cfg: Optional[SeparatorConfig] = None
) -> SeparatorResult:
    """Full separator: base box, shell sweep, classification, measures."""
    cfg = cfg or SeparatorConfig()
    if len(objs) < 2:
        raise ValueError("separate needs at least 2 objects")
    ctx = IntersectionContext(objs)
    total = greedy_pack(objs, ctx=ctx)
    g = max(total.value, 1)
    tau = int(math.ceil((1.0 + cfg.epsilon) / 3.0 * g))
    tau = max(tau, 1)

    centers = _centers_array(objs)
    degenerate = float((centers.max(axis=0) - centers.min(axis=0)).max()) <= 0.0

    base = find_base_box(objs, tau, ctx=ctx)
    if degenerate:
        m_star = 1.0
    else:
        m_star, _ = shell_sweep(objs, base, g, ctx=ctx)
    box = magnify(base, m_star)

    inside_ids: List[int] = []
    outside_ids: List[int] = []
    boundary_ids: List[int] = []
    for i, o in enumerate(objs):
        cls = classify(o, box)
        if cls is RegionClass.INSIDE:
            inside_ids.append(i)
        elif cls is RegionClass.OUTSIDE:
            outside_ids.append(i)
        else:
            boundary_ids.append(i)

    def part_measure(ids: List[int]) -> MeasureEstimate:
        mask = 0
        for i in ids:
            mask |= 1 << i
        value, chosen = ctx.greedy_pack_mask(mask)
        return MeasureEstimate(value=value, witness=mask_to_ids(chosen))

    return SeparatorResult(
        box=box,
        base_box=base,
        m_star=m_star,
        inside_ids=inside_ids,
        outside_ids=outside_ids,
        boundary_ids=boundary_ids,
        mu_total=total,
        mu_inside=part_measure(inside_ids),
        mu_outside=part_measure(outside_ids),
        mu_boundary=part_measure(boundary_ids),
        degenerate=degenerate,
    )
