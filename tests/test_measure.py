import random

import pytest

from fatsep.geometry import AxisBox, Ball, contains_point, intersects
from fatsep.instances import Instance, gen_instance
from fatsep.measure import (
    OVERFLOW,
    IntersectionContext,
    exact_small_pack,
    exact_small_pierce,
    greedy_pack,
    greedy_pierce,
)
from fatsep.oracle import brute_pack, brute_pierce
from conftest import random_objects


def disks_on_a_line(xs, r=1.0):
    return [Ball((x, 0.0), r) for x in xs]


def test_greedy_pack_disjoint():
    est = greedy_pack(disks_on_a_line([0, 10, 20]))
    assert est.value == 3
    assert sorted(est.witness) == [0, 1, 2]


def test_greedy_pack_concentric():
    objs = [Ball((0, 0), r) for r in range(1, 6)]
    est = greedy_pack(objs)
    assert est.value == 1
    assert est.witness == [0]  # smallest first


def test_greedy_pack_witness_independent_and_maximal():
    for seed in range(25):
        objs = random_objects(seed, 15)
        est = greedy_pack(objs)
        wit = [objs[i] for i in est.witness]
        for i, a in enumerate(wit):
            for b in wit[i + 1 :]:
                assert not intersects(a, b)
        # maximality: every object meets some witness member
        for o in objs:
            assert any(intersects(o, w) for w in wit)


def test_greedy_pack_deterministic():
    objs = random_objects(3, 20)
    a, b = greedy_pack(objs), greedy_pack(objs)
    assert a.value == b.value and a.witness == b.witness


def test_greedy_pack_lower_bounds_pack():
    for seed in range(40):
        objs = random_objects(seed, 12)
        inst = Instance(dim=2, objects=tuple(objs))
        assert greedy_pack(objs).value <= brute_pack(inst).value


def test_greedy_pierce_disjoint():
    est = greedy_pierce(disks_on_a_line([0, 10, 20, 30]))
    assert est.value == 4


def test_greedy_pierce_concentric():
    objs = [Ball((0, 0), float(r)) for r in range(1, 6)]
    est = greedy_pierce(objs)
    assert est.value == 1


def test_greedy_pierce_feasible():
    for seed in range(20):
        objs = random_objects(seed, 10, shape="box")
        est = greedy_pierce(objs)
        for o in objs:
            assert any(contains_point(o, p) for p in est.witness)


def test_greedy_pierce_upper_bounds_pierce():
    for seed in range(25):
        objs = random_objects(seed, 10)
        inst = Instance(dim=2, objects=tuple(objs))
        assert greedy_pierce(objs).value >= brute_pierce(inst).value


def test_pack_pierce_duality():
    # A disjoint family needs one pierce point per member.
    for seed in range(25):
        objs = random_objects(seed, 10)
        inst = Instance(dim=2, objects=tuple(objs))
        assert greedy_pack(objs).value <= brute_pierce(inst).value


def test_exact_small_pack_empty():
    assert exact_small_pack([], 3).value == 0


def test_exact_small_pack_overflow():
    objs = disks_on_a_line([0, 10, 20])
    assert exact_small_pack(objs, 2) is OVERFLOW
    assert exact_small_pack(objs, 3).value == 3


def test_exact_small_pack_matches_oracle():
    for seed in range(30):
        objs = random_objects(seed, 15)
        inst = Instance(dim=2, objects=tuple(objs))
        want = brute_pack(inst).value
        got = exact_small_pack(objs, 6)
        if want <= 6:
            assert got.value == want
            wit = [objs[i] for i in got.witness]
            for i, a in enumerate(wit):
                for b in wit[i + 1 :]:
                    assert not intersects(a, b)
        else:
            assert got is OVERFLOW


def test_exact_small_pack_full_cap_equals_oracle():
    rng = random.Random(1)
    for seed in range(20):
        objs = random_objects(seed + 100, 14)
        inst = Instance(dim=2, objects=tuple(objs))
        assert exact_small_pack(objs, 14).value == brute_pack(inst).value
        # A random proper sub-mask, closed on the full instance's context.
        mask = rng.randrange(1, (1 << 14) - 1)
        ids = [i for i in range(14) if mask >> i & 1]
        value, chosen = IntersectionContext(objs).exact_pack_mask(mask)
        sub = Instance(dim=2, objects=tuple(objs[i] for i in ids))
        assert value == brute_pack(sub).value
        assert chosen & ~mask == 0 and chosen.bit_count() == value
        wit = [objs[i] for i in range(14) if chosen >> i & 1]
        for i, a in enumerate(wit):
            for b in wit[i + 1 :]:
                assert not intersects(a, b)


def test_exact_small_pierce_empty_and_overflow():
    assert exact_small_pierce([], 0).value == 0
    assert exact_small_pierce(disks_on_a_line([0, 10]), 1) is OVERFLOW


def test_exact_small_pierce_matches_oracle():
    for seed in range(25):
        objs = random_objects(seed, 10)
        inst = Instance(dim=2, objects=tuple(objs))
        want = brute_pierce(inst).value
        got = exact_small_pierce(objs, 5)
        if want <= 5:
            assert got.value == want
            for o in objs:
                assert any(contains_point(o, p) for p in got.witness)
        else:
            assert got is OVERFLOW
