import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatsep.geometry import (
    TOL,
    AxisBox,
    Ball,
    BoxRegion,
    DimensionMismatchError,
    RegionClass,
    ShapeArrays,
    bounding_low_high,
    center,
    classify,
    contains_point,
    intersects,
    magnify,
    size,
)
from conftest import random_objects

coord = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def boxes(d=2):
    return st.lists(coord, min_size=d, max_size=d).flatmap(
        lambda lo: st.lists(
            st.floats(min_value=0.1, max_value=20), min_size=d, max_size=d
        ).map(lambda s: BoxRegion(tuple(lo), tuple(l + x for l, x in zip(lo, s))))
    )


def test_size_examples():
    assert size(Ball((0, 0), 1)) == 2.0
    assert size(AxisBox((0, 0), (2, 1))) == 2.0
    assert size(AxisBox((0, 0, 0), (1, 1, 1))) == 1.0


def test_size_scales_linearly():
    b = Ball((1.0, 2.0), 0.75)
    scaled = Ball((3.0, 6.0), 0.75 * 3)
    assert size(scaled) == pytest.approx(3 * size(b))


def test_box_aspect_guard():
    with pytest.raises(ValueError):
        AxisBox((0, 0), (10, 1))


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan])
def test_ball_radius_positive_and_finite(radius):
    with pytest.raises(ValueError):
        Ball((0, 0), radius)


def test_intersects_examples():
    assert not intersects(Ball((0, 0), 1), Ball((3, 0), 1))
    assert intersects(Ball((0, 0), 1), Ball((2, 0), 1))  # tangent, closed sets
    assert intersects(AxisBox((0, 0), (1, 1)), Ball((2, 1), 1.05))
    assert not intersects(AxisBox((0, 0), (1, 1)), Ball((2, 1), 0.95))


def test_intersects_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        intersects(Ball((0, 0), 1), Ball((0, 0, 0), 1))


def test_classify_examples():
    box = BoxRegion((-2, -2), (2, 2))
    assert classify(Ball((0, 0), 1), box) is RegionClass.INSIDE
    assert classify(Ball((5, 5), 1), box) is RegionClass.OUTSIDE
    assert classify(Ball((2, 0), 1), box) is RegionClass.BOUNDARY


def test_ball_tests_take_overflowing_squares_as_apart():
    # Offsets near 1e160 square past the float range, to inf: the shapes are
    # apart and the point outside, where squaring with Python's `**` raises.
    far, unit = Ball((1e160, 0.0), 1.0), Ball((0.0, 0.0), 1.0)
    assert not intersects(far, Ball((-1e160, 0.0), 1.0))
    assert not intersects(far, AxisBox((-1.0, -1.0), (1.0, 1.0)))
    assert not contains_point(unit, (1e160, 0.0))
    assert classify(far, BoxRegion((-1.0, -1.0), (1.0, 1.0))) is RegionClass.OUTSIDE


def test_magnify_examples():
    b = BoxRegion((0, 0), (2, 2))
    assert magnify(b, 1) == b
    assert magnify(b, 2) == BoxRegion((-1, -1), (3, 3))
    m = magnify(BoxRegion((0, 0), (2, 4)), 1.5)
    assert m.low == pytest.approx((-0.5, -1.0))
    assert m.high == pytest.approx((2.5, 5.0))
    with pytest.raises(ValueError):
        magnify(b, 0.5)


@given(boxes(), st.floats(min_value=1, max_value=1.5), st.floats(min_value=0, max_value=0.5))
def test_magnify_nesting(box, m1, extra):
    m2 = m1 + extra
    inner = magnify(box, m1)
    outer = magnify(box, m2)
    for i in range(box.dim):
        assert outer.low[i] <= inner.low[i] + 1e-9
        assert outer.high[i] >= inner.high[i] - 1e-9
    assert max(outer.sides) / min(outer.sides) == pytest.approx(max(box.sides) / min(box.sides))


def test_classify_partition_random():
    rng = random.Random(5)
    objs = random_objects(5, 60, d=2, shape="ball") + random_objects(6, 60, d=2, shape="box")
    for _ in range(200):
        lo = (rng.uniform(-5, 10), rng.uniform(-5, 10))
        s = rng.uniform(0.5, 12)
        box = BoxRegion(lo, (lo[0] + s, lo[1] + s))
        for o in objs:
            cls = classify(o, box)
            # The centre lies in the closed box, within TOL.
            centre_in = all(l - TOL <= x <= h + TOL for x, l, h in zip(center(o), box.low, box.high))
            if cls is RegionClass.INSIDE:
                assert centre_in
            elif cls is RegionClass.OUTSIDE:
                assert not centre_in


def test_intersects_symmetric_random():
    objs = random_objects(7, 40, shape="ball") + random_objects(8, 40, shape="box")
    rng = random.Random(9)
    for _ in range(500):
        a, b = rng.choice(objs), rng.choice(objs)
        assert intersects(a, b) == intersects(b, a)
        assert intersects(a, a)


def _margin(a, b):
    """Signed penetration depth; positive means overlap."""
    if isinstance(a, Ball) and isinstance(b, Ball):
        d = math.dist(a.center, b.center)
        return a.radius + b.radius - d
    if isinstance(a, Ball) or isinstance(b, Ball):
        ball, box = (a, b) if isinstance(a, Ball) else (b, a)
        d2 = sum(
            max(l - x, 0.0, x - h) ** 2
            for x, l, h in zip(ball.center, box.low, box.high)
        )
        return ball.radius - math.sqrt(d2)
    return min(
        min(ah, bh) - max(al, bl)
        for al, ah, bl, bh in zip(a.low, a.high, b.low, b.high)
    )


def test_intersects_agrees_with_point_sampling():
    """Monte-Carlo membership oracle: 1e5 samples per pair, 1000 pairs."""
    rng = np.random.default_rng(123)
    pyrng = random.Random(11)
    objs = random_objects(11, 80, shape="ball") + random_objects(12, 80, shape="box")
    checked = 0
    for _ in range(1000):
        a, b = pyrng.choice(objs), pyrng.choice(objs)
        lo_a, hi_a = _bbox(a)
        lo_b, hi_b = _bbox(b)
        lo = np.minimum(lo_a, lo_b)
        hi = np.maximum(hi_a, hi_b)
        area = float(np.prod(hi - lo))
        spacing = math.sqrt(area / 1e5)
        m = _margin(a, b)
        if abs(m) < 6 * spacing:
            continue  # analytic margin below sampling resolution
        pts = rng.uniform(lo, hi, size=(100_000, 2))
        common = np.any(_member(a, pts) & _member(b, pts))
        assert bool(common) == intersects(a, b)
        checked += 1
    assert checked > 500


def _bbox(o):
    if isinstance(o, Ball):
        c = np.array(o.center)
        return c - o.radius, c + o.radius
    return np.array(o.low), np.array(o.high)


def _member(o, pts):
    if isinstance(o, Ball):
        c = np.array(o.center)
        return ((pts - c) ** 2).sum(axis=1) <= o.radius**2
    return np.all((pts >= np.array(o.low)) & (pts <= np.array(o.high)), axis=1)


def test_shape_arrays_rows_equal_scalar_layout():
    # Mixed ball/box families in d=2 and d=3, and one- and zero-object ones.
    families = [[]]
    for d in (2, 3):
        for seed in range(3):
            mixed = random_objects(seed, 15, d=d) + random_objects(seed, 15, d=d, shape="box")
            random.Random(seed).shuffle(mixed)
            families += [mixed, mixed[:1], [o for o in mixed if isinstance(o, AxisBox)][:1]]
    families.append([AxisBox((0.1, 0.7), (0.3, 0.9)), Ball((0.1, 0.2), 0.3)])
    for objs in families:
        a = ShapeArrays(objs)
        d = objs[0].dim if objs else 0
        assert a.ball.shape == a.radius.shape == (len(objs),)
        assert a.center.shape == a.low.shape == a.high.shape == (len(objs), d)
        assert a.dim == d
        for i, o in enumerate(objs):
            assert a.ball[i] == isinstance(o, Ball)
            assert tuple(a.center[i].tolist()) == center(o)
            assert (tuple(a.low[i].tolist()), tuple(a.high[i].tolist())) == bounding_low_high(o)
            if isinstance(o, Ball):
                assert a.radius[i] == o.radius
            else:
                assert math.isnan(a.radius[i])
    with pytest.raises(DimensionMismatchError):
        ShapeArrays([Ball((0.0, 0.0), 1.0), AxisBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))])
