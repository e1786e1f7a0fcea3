import itertools
import math
import random

import numpy as np
import pytest

from fatsep import candidates
from fatsep.candidates import (
    _CHUNK,
    UnsupportedShapeError,
    _circle_intersections,
    candidate_pierce_points,
    candidate_rows,
    coverage_masks,
)
from fatsep.geometry import TOL, AxisBox, Ball, ShapeArrays, contains_point
from fatsep.instances import gen_instance
from fatsep.measure import IntersectionContext, PierceTable, prune_dominated


def test_single_disk_lowest_point():
    d = Ball((3.0, 4.0), 2.0)
    pts = candidate_pierce_points([d])
    assert (3.0, 2.0) in pts
    assert any(contains_point(d, p) for p in pts)


def test_two_boxes_overlap_corner():
    a = AxisBox((0, 0), (2, 2))
    b = AxisBox((1, 1), (3, 3))
    pts = candidate_pierce_points([a, b])
    # grid of per-axis lows contains the overlap corner (max-low per axis)
    assert (1.0, 1.0) in pts
    assert any(contains_point(a, p) and contains_point(b, p) for p in pts)


def test_two_disks_intersection_points():
    a = Ball((0, 0), 1.5)
    b = Ball((2, 0), 1.5)
    pts = candidate_pierce_points([a, b])
    both = [p for p in pts if contains_point(a, p) and contains_point(b, p)]
    assert both  # the lens region is represented


def test_candidates_sorted_unique():
    objs = [Ball((i, 0), 1.0) for i in range(4)]
    pts = candidate_pierce_points(objs)
    assert pts == sorted(set(pts))


def test_disk_candidates_ignore_family_order():
    # Each pair's circle intersections are computed in one order, so a
    # reordered family gives the same points bit for bit; in list order,
    # swapping the two disks of a pair moves some points in the last bits.
    rng = random.Random(3)
    for seed in range(3):
        objs = list(gen_instance("random", 2, shape="ball", n=30, seed=seed).objects)
        want = candidate_pierce_points(objs)
        for _ in range(3):
            shuffled = rng.sample(objs, len(objs))
            assert candidate_pierce_points(shuffled) == want
            assert candidate_pierce_points(shuffled[::-1]) == want


def all_pairs_disk_candidates(objs):
    """Reference: every lowest point and the circle intersections of every
    pair, each pair taken in (centre, radius) order."""
    pts = {(o.center[0], o.center[1] - o.radius) for o in objs}
    disks = sorted(objs, key=lambda o: (o.center, o.radius))
    for i, a in enumerate(disks):
        for b in disks[i + 1 :]:
            pts.update(_circle_intersections(a, b))
    return sorted(pts)


def test_disk_pair_filter_keeps_every_intersection(monkeypatch):
    # The numpy distance test skips only pairs without intersection points:
    # tangent, nested and coincident disks, and pairs within rounding of the
    # outer and inner tangent distances (radii sum or difference plus or
    # minus TOL) at angles where `hypot` rounds, give the all-pairs points.
    families = [
        [Ball((0, 0), 1.0), Ball((2, 0), 1.0)],
        [Ball((0, 0), 1.0), Ball((2 + TOL, 0), 1.0), Ball((2 + 3 * TOL, 0), 1.0)],
        [Ball((0, 0), 2.0), Ball((1, 0), 1.0), Ball((1 - TOL, 0), 1.0), Ball((0.5, 0), 1.0)],
        [Ball((0, 0), 3.0), Ball((0.5, 0.5), 1.0), Ball((0.5, 0.5), 1.0), Ball((0, 0), 3.0)],
        [Ball((1, 1), 1.0), Ball((1, 1), 2.0), Ball((1, 1 + TOL / 2), 1.0)],
    ]
    rng = random.Random(6)
    for _ in range(300):
        r1, r2 = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        t = rng.uniform(0, 2 * math.pi)
        for dist in (r1 + r2 + TOL, abs(r1 - r2) - TOL, r1 + r2, abs(r1 - r2)):
            for eps in (-1e-15, 0.0, 1e-15):
                d = dist * (1 + eps)
                families.append([Ball((0.3, 0.7), r1), Ball((0.3 + d * math.cos(t), 0.7 + d * math.sin(t)), r2)])
    for seed, density in ((0, 1), (1, 8)):
        families.append(list(gen_instance("random", 2, shape="ball", n=40, seed=seed, density=density).objects))
    found = 0
    for objs in families:
        want = all_pairs_disk_candidates(objs)
        assert candidate_pierce_points(objs) == want
        found += len(want) - len(objs)
    assert found > 1000
    # The filter rules out most pairs of a sparse family, block by block.
    objs = sorted(gen_instance("random", 2, shape="ball", n=40, seed=0).objects, key=lambda o: (o.center, o.radius))
    monkeypatch.setattr(candidates, "_CHUNK", 7)
    pairs = list(candidates._circle_pairs(objs))
    assert all(i < j for i, j in pairs) and len(pairs) < 40 * 39 // 8
    assert candidate_pierce_points(objs) == all_pairs_disk_candidates(objs)


def test_balls_d3_unsupported():
    with pytest.raises(UnsupportedShapeError):
        candidate_pierce_points([Ball((0, 0, 0), 1.0), Ball((1, 0, 0), 1.0)])


def test_mixed_family_unsupported():
    with pytest.raises(UnsupportedShapeError):
        candidate_pierce_points([Ball((0, 0), 1.0), AxisBox((0, 0), (1, 1))])


def test_coverage_masks():
    a = AxisBox((0, 0), (1, 1))
    b = AxisBox((10, 10), (11, 11))
    pts = [(0.5, 0.5), (10.5, 10.5), (5.0, 5.0)]
    assert coverage_masks([a, b], pts) == [1, 2, 0]


def scalar_masks(objs, points):
    """Reference: one `contains_point` call per (point, object)."""
    return [
        sum(1 << i for i, o in enumerate(objs) if contains_point(o, p)) for p in points
    ]


def boundary_points(objs):
    """Points moved 0.5, 1 and 2 TOL in and out of every box face and circle rim."""
    pts = []
    for delta in (-2 * TOL, -TOL, -TOL / 2, TOL / 2, TOL, 2 * TOL):
        for o in objs:
            if isinstance(o, Ball):
                r = o.radius + delta
                for k in range(8):
                    t = math.pi * k / 4
                    pts.append((o.center[0] + r * math.cos(t), o.center[1] + r * math.sin(t)))
                continue
            mid = [(l + h) / 2 for l, h in zip(o.low, o.high)]
            for a in range(o.dim):
                for face, out in ((o.low[a], -1), (o.high[a], 1)):
                    p = list(mid)
                    p[a] = face + out * delta
                    pts.append(tuple(p))
    return pts


def test_coverage_masks_matches_contains_point():
    def check(objs, pts):
        masks = coverage_masks(objs, pts)
        assert masks == scalar_masks(objs, pts)
        return masks

    for shape, d in [("box", 2), ("box", 3), ("ball", 2)]:
        for seed in range(4):
            objs = list(gen_instance("random", d, shape=shape, n=12, seed=seed).objects)
            check(objs, candidate_pierce_points(objs) + boundary_points(objs))
    # A point at exactly radius + TOL from the center sits on the comparison's
    # last bit: squares rounded other than as `contains_point`'s flip some.
    for k in range(2000):
        r = 0.5 + k / 997
        check([Ball((0.0, 0.0), r)], [(r + TOL, 0.0)])
    # Points off a disk's centre on two axes, within an ulp or so of its
    # limit r + TOL, whose sums of squares compare otherwise under x * x
    # than under `pow`.
    gen = np.random.default_rng(6)
    r = gen.uniform(0.2, 0.5, 20000)
    limit = r + TOL
    dx = limit * gen.uniform(0.2, 0.8, 20000)
    dy = np.sqrt(limit * limit - dx * dx)
    disks, pts = [], []
    for _ in range(5):
        mult = dx * dx + dy * dy <= limit * limit
        power = np.float_power(dx, 2.0) + np.float_power(dy, 2.0) <= np.float_power(limit, 2.0)
        for k in np.flatnonzero(mult != power).tolist():
            disks.append(Ball((0.0, 0.0), r[k]))
            pts.append((float(dx[k]), float(dy[k])))
        dy = np.nextafter(dy, np.inf)
    masks = check(disks, pts)
    assert len(pts) >= 10 and {m >> k & 1 for k, m in enumerate(masks)} == {0, 1}
    # Masks wider than 64 bits, over more than one block of points.
    objs = list(gen_instance("random", 2, shape="box", n=70, seed=1).objects)
    pts = candidate_pierce_points(objs) + boundary_points(objs)
    assert len(pts) > 2 * _CHUNK
    masks = check(objs, pts)
    assert max(masks).bit_length() > 64
    assert all(m >> len(objs) == 0 for m in masks)
    # Empty inputs and a mixed ball/box family.
    mixed = [Ball((0, 0), 1.0), AxisBox((0.5, 0.5), (2, 2)), Ball((2.5, 0), 1.5)]
    assert coverage_masks(mixed, []) == []
    assert coverage_masks([], [(0.0, 0.0), (1.0, 1.0)]) == [0, 0]
    assert coverage_masks([], []) == []
    grid = [(x / 4, y / 4) for x in range(-6, 18) for y in range(-8, 10)]
    check(mixed, grid + boundary_points(mixed))


def full_grid_candidates(objs):
    """Reference box candidates: every point of the grid of per-axis lows,
    in a box or not, plus the centres (sorted, deduplicated)."""
    axes = [sorted({o.low[a] for o in objs}) for a in range(objs[0].dim)]
    pts = set(itertools.product(*axes))
    pts.update(tuple((l + h) / 2.0 for l, h in zip(o.low, o.high)) for o in objs)
    return sorted(pts)


def first_point_per_coverage(objs):
    """(point, mask) of the lexicographically first point of the grid of
    per-axis lows for each distinct nonzero coverage, sorted by point."""
    grid = list(itertools.product(*(sorted({o.low[a] for o in objs}) for a in range(objs[0].dim))))
    first = {}
    for p, m in zip(grid, coverage_masks(objs, grid)):
        if m:
            first.setdefault(m, p)
    return sorted((p, m) for m, p in first.items())


def face_offset_boxes(d, delta):
    """A unit cube at the origin and, per axis, three unit cubes with a face
    `delta` off one of its faces on that axis: a low face off its high face,
    a high face off its low face, and a low face off its low face (beyond
    the cube on every other axis), so grid values fall within a few TOL of
    both ends of the tolerant intervals."""
    boxes = [AxisBox((0.0,) * d, (1.0,) * d)]
    for a in range(d):
        for low, across in ((1.0 + delta, 0.25), (delta - 1.0, -0.25), (delta, 1.5)):
            lo = tuple(low if b == a else across for b in range(d))
            boxes.append(AxisBox(lo, tuple(x + 1.0 for x in lo)))
    return boxes


def box_families():
    """Random box families at densities 1 and 8, wider ones whose masks take
    two words (d=2 n=90 at ρ=1, n=70 at ρ=8), and the face-offset ones."""
    families = [
        list(gen_instance("random", d, shape="box", n=n, seed=seed, density=rho).objects)
        for d, n in ((2, 12), (2, 30), (3, 12))
        for seed in range(4)
        for rho in (1, 8)
    ]
    families += [
        list(gen_instance("random", 2, shape="box", n=n, seed=seed, density=rho).objects)
        for n, rho in ((90, 1), (70, 8))
        for seed in range(2)
    ]
    return families + [
        face_offset_boxes(d, delta)
        for d in (2, 3)
        for delta in (-2 * TOL, -TOL, -TOL / 2, TOL / 2, TOL, 2 * TOL)
    ]


def centre_face_boxes(d):
    """A half-unit cube at the origin (centre 0.25 on every axis) and, per
    axis, two half-unit cubes whose tolerant interval on that axis starts or
    ends exactly at that centre and holds it on every other axis, so the
    centre's mask depends on which side of a tied bound it is read from."""
    boxes = [AxisBox((0.0,) * d, (0.5,) * d)]
    for a in range(d):
        for low, high in ((0.25 + TOL, 0.75 + TOL), (-0.25 - TOL, 0.25 - TOL)):
            boxes.append(AxisBox(
                tuple(low if b == a else 0.0 for b in range(d)),
                tuple(high if b == a else 0.5 for b in range(d)),
            ))
        assert boxes[-2].low[a] - TOL == 0.25 == boxes[-1].high[a] + TOL
    return boxes


def test_box_candidates_are_the_in_box_grid():
    dropped = 0
    for objs in box_families():
        grid = full_grid_candidates(objs)
        # `coverage_masks` is `contains_point` bit for bit (tested above).
        cov = coverage_masks(objs, grid)
        pts = candidate_pierce_points(objs)
        assert pts == [p for p, c in zip(grid, cov) if c]
        dropped += len(grid) - len(pts)
        # The grid points left out pierce nothing, so the table is the same
        # (its masks are over the context's numbering).
        ctx = IntersectionContext(objs)
        table = PierceTable(ctx)
        assert (table.points, table.cov) == prune_dominated(grid, coverage_masks(ctx.objs, grid))
    assert dropped


def test_candidate_rows_are_the_coverage_masks(monkeypatch):
    # Boxes: every unpruned row, grid points and centres alike, holds the
    # mask `contains_point` gives its point.
    for objs in box_families() + [centre_face_boxes(d) for d in (2, 3)]:
        points, masks = candidate_rows(objs, ShapeArrays(objs))
        assert masks == scalar_masks(objs, points)
        centres = [tuple((l + h) / 2.0 for l, h in zip(o.low, o.high)) for o in objs]
        assert points[-len(objs) :] == centres
        # The grid rows hold pairwise distinct masks, each with the first
        # (smallest) point of the grid of lows that has it.
        grid_masks = masks[: -len(objs)]
        assert len(set(grid_masks)) == len(grid_masks)
        assert list(zip(points, grid_masks)) == first_point_per_coverage(objs)
    # Disks: the table reads the context's own layout, laying out no second
    # one, and equals the pruned coverage of the public candidate set.
    layouts = []
    init = ShapeArrays.__init__

    def counted(self, objs):
        layouts.append(len(objs))
        init(self, objs)

    for seed in range(4):
        for n, rho in ((12, 1), (30, 1), (30, 8)):
            ctx = IntersectionContext(gen_instance("random", 2, n=n, seed=seed, density=rho).objects)
            points = candidate_pierce_points(ctx.objs)
            with monkeypatch.context() as m:
                m.setattr(ShapeArrays, "__init__", counted)
                table = PierceTable(ctx)
            assert (table.points, table.cov) == prune_dominated(points, coverage_masks(ctx.objs, points))
    assert not layouts
