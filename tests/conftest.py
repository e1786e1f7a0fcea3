import random

import pytest

from fatsep.geometry import AxisBox, Ball


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


@pytest.fixture
def rng():
    return random.Random(0)
