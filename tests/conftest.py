import math
import random
import statistics

import numpy as np
import pytest
from hypothesis import strategies as st

from fatsep.geometry import TOL, AxisBox, Ball, center, size
from fatsep.instances import Instance, gen_instance


def random_objects(seed, n, d=2, shape="ball", span=10.0):
    """Small deterministic object soup for property tests."""
    rng = random.Random(seed)
    objs = []
    for _ in range(n):
        c = [rng.uniform(0, span) for _ in range(d)]
        if shape == "ball":
            objs.append(Ball(tuple(c), rng.uniform(0.3, 1.5)))
        else:
            halves = [rng.uniform(0.3, 0.6) for _ in range(d)]
            objs.append(
                AxisBox(
                    tuple(x - h for x, h in zip(c, halves)),
                    tuple(x + h for x, h in zip(c, halves)),
                )
            )
    return objs


def equal_size(inst):
    """`inst` with the same centres and every object's size set to the
    family's median size: balls of that diameter, cubes of that side."""
    side = statistics.median(size(o) for o in inst.objects)
    objs = []
    for o in inst.objects:
        c = center(o)
        if isinstance(o, Ball):
            objs.append(Ball(c, side / 2))
        else:
            objs.append(AxisBox(tuple(x - side / 2 for x in c), tuple(x + side / 2 for x in c)))
    return Instance(dim=inst.dim, objects=tuple(objs), label=f"eq-{inst.label}")


def equal_size_balls(n, seed):
    """A dense (density 8) random ball family in d = 2, `equal_size`."""
    return equal_size(gen_instance("random", 2, shape="ball", n=n, seed=seed, density=8))


# Instance files, each with the line `parse_instance` reports it bad at, or
# None when it parses.
INSTANCE_FILES = {
    "empty": ("", 1),
    "bad-d": ("fatsep v1 d=two n=1\nball 0 0 1\n", 1),
    "bad-n": ("fatsep v1 d=2 n=-x\nball 0 0 1\n", 1),
    "bad-seed": ("fatsep v1 d=2 n=1\n# seed: 1.5\nball 0 0 1\n", 2),
    "missing-radius": ("fatsep v1 d=2 n=1\nball 0 0\n", 2),
    "box-coordinates": ("fatsep v1 d=2 n=2\nbox 0 0 1 1\nbox 0 0 1\n", 3),
    "unknown-kind": ("fatsep v1 d=2 n=1\ncone 0 0 1\n", 2),
    "negative-radius": ("fatsep v1 d=2 n=2\nball 0 0 1\n\nball 5 0 -1\n", 4),
    "blank-line": ("fatsep v1 d=2 n=2\nball 0 0 1\n\nball 5 0 1\n", None),
}


def given_mask(ctx, mask):
    """`mask`, whose bit i is the context's `objs[i]`, over the family's
    given positions instead."""
    return sum(1 << ctx.ids[i] for i in range(ctx.n) if mask >> i & 1)


def given_nbr(ctx):
    """`ctx.nbr` indexed and masked by the family's given positions."""
    nbr = [0] * ctx.n
    for i, mask in enumerate(ctx.nbr):
        nbr[ctx.ids[i]] = given_mask(ctx, mask)
    return nbr


def shifted(obj, dx):
    """`obj` moved by `dx` along axis 0."""

    def move(p):
        return (p[0] + dx,) + tuple(p[1:])

    if isinstance(obj, Ball):
        return Ball(move(obj.center), obj.radius)
    return AxisBox(move(obj.low), move(obj.high))


def huge_ball_family(x, rng):
    """Ball pairs near (x, 0), radii about 1e150, whose axis offset is the
    radii sum plus TOL, or that times 1 + 1e-6, rounded to the ulp of x
    (about 1.6e144 at 1e160, a few 1e-7 of the sum): so the pairs fall
    either side of touching, and the kernel's squares must round like the
    offsets `intersects` takes."""
    objs = []
    for k in range(12):
        r1, r2 = rng.uniform(1e150, 3e150), rng.uniform(1e150, 3e150)
        limit = r1 + r2 + TOL
        for t in (limit, limit * (1.0 + 1e-6)):
            y = 1e152 * len(objs)
            objs += [Ball((x, y), r1), Ball((x + t, y), r2)]
    return objs


def overflowing_offsets(count=5):
    """(limit, offsets): `count` offsets (x, y) whose sum of squares under
    x * x is half an ulp past the largest float, so it rounds to inf and a
    ball test takes the pair as apart.  `pow` rounds x squared an ulp lower,
    so a test that squares with `pow` would find the sum equal to limit
    squared, the largest float but one, and the pair touching."""
    ulp = math.ldexp(1.0, 971)
    limit = math.ldexp(1.0, 512) - math.ldexp(1.0, 459)
    assert limit * limit == np.finfo(float).max - ulp
    m = np.arange(1, 1 << 21, 2)
    square = np.ldexp(((1 << 54) - 1 - m * m).astype(float), 970)
    dx = np.sqrt(square)
    with np.errstate(over="ignore"):
        found = np.flatnonzero((dx * dx == square) & (np.float_power(dx, 2.0) == square - ulp))
    assert len(found) >= count
    offsets = [(float(dx[k]), math.ldexp(float(m[k]), 485)) for k in found[:count].tolist()]
    for x, y in offsets:
        assert x * x + y * y == math.inf and x**2 + y**2 == limit * limit
    return limit, offsets


@st.composite
def families_and_masks(draw, max_n=60):
    """(objects, mask): a random family of balls or boxes in d = 2 or 3, at
    density 1 or 8, and a mask of at least two of its objects (bit i: the
    i-th smallest).  Half the families get their sizes rounded to a few
    values (boxes become cubes), so sizes tie."""
    shape = draw(st.sampled_from(["ball", "box"]))
    d = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(2, max_n))
    density = draw(st.sampled_from([1.0, 8.0]))
    seed = draw(st.integers(0, 2**16))
    objs = list(gen_instance("random", d, shape=shape, n=n, seed=seed, density=density).objects)
    if draw(st.booleans()):
        sides = [max(round(size(o), 1), 0.1) for o in objs]
        if shape == "ball":
            objs = [Ball(o.center, s / 2) for o, s in zip(objs, sides)]
        else:
            objs = [
                AxisBox(tuple(c - s / 2 for c in center(o)), tuple(c + s / 2 for c in center(o)))
                for o, s in zip(objs, sides)
            ]
    bits = draw(st.sets(st.integers(0, n - 1), min_size=2))
    return objs, sum(1 << i for i in bits)


@pytest.fixture
def rng():
    return random.Random(0)
