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
