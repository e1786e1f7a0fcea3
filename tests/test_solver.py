import random

import pytest

from fatsep import candidates
from fatsep.geometry import Ball, contains_point, intersects
from fatsep.instances import Instance, gen_instance
from fatsep.measure import IntersectionContext, greedy_pierce
from fatsep.oracle import brute_pack, brute_pierce
from fatsep.solver import (
    SolveConfig,
    _PackSearch,
    _PierceSearch,
    solve_pack,
    solve_pierce,
)
from conftest import random_objects


def inst_of(objs, d=2):
    return Instance(dim=d, objects=tuple(objs))


def count_calls(monkeypatch, owner, name):
    """Wrap method or module function `owner.name` so each call bumps the
    returned one-item counter."""
    calls = [0]
    original = getattr(owner, name)

    def wrapper(self, *args):
        calls[0] += 1
        return original(self, *args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


# --- solve_pack -----------------------------------------------------------


def test_pack_three_disjoint_disks():
    sol = solve_pack(inst_of([Ball((10 * i, 0), 1) for i in range(3)]))
    assert sol.value == 3 and sorted(sol.witness) == [0, 1, 2] and sol.optimal


def test_pack_concentric():
    sol = solve_pack(inst_of([Ball((0, 0), float(r)) for r in range(1, 8)]))
    assert sol.value == 1


def test_pack_empty():
    sol = solve_pack(inst_of([]))
    assert sol.value == 0 and sol.witness == []


@pytest.mark.parametrize("shape,d", [("ball", 2), ("box", 2), ("box", 3)])
def test_pack_matches_oracle(shape, d):
    cfg = SolveConfig(base_threshold=4)  # force recursion on most seeds
    for seed in range(25):
        inst = gen_instance("random", d, shape=shape, n=18, seed=seed)
        sol = solve_pack(inst, cfg)
        assert sol.optimal
        assert sol.value == brute_pack(inst).value
        wit = [inst.objects[i] for i in sol.witness]
        assert len(wit) == sol.value
        for i, a in enumerate(wit):
            for b in wit[i + 1 :]:
                assert not intersects(a, b)


def test_pack_cluster_recursion_matches_oracle():
    # far clusters guarantee the separator path actually fires
    cfg = SolveConfig(base_threshold=3)
    for seed in range(10):
        inst = gen_instance("cluster", 2, clusters=4, cluster_size=5, seed=seed)
        sol = solve_pack(inst, cfg)
        assert sol.value == brute_pack(inst).value
        assert sol.nodes > 1


# --- solve_pierce ---------------------------------------------------------


def test_pierce_disjoint():
    sol = solve_pierce(inst_of([Ball((10 * i, 0), 1) for i in range(4)]))
    assert sol.value == 4


def test_pierce_concentric():
    sol = solve_pierce(inst_of([Ball((0, 0), float(r)) for r in range(1, 6)]))
    assert sol.value == 1


@pytest.mark.parametrize("shape,d", [("ball", 2), ("box", 2), ("box", 3)])
def test_pierce_matches_oracle(shape, d, monkeypatch):
    separated = count_calls(monkeypatch, _PierceSearch, "_separated")
    cfg = SolveConfig(base_threshold=3)
    for seed in range(20):
        inst = gen_instance("random", d, shape=shape, n=12, seed=seed)
        sol = solve_pierce(inst, cfg)
        assert sol.optimal
        assert sol.value == brute_pierce(inst).value
        assert len(sol.witness) == sol.value
        for o in inst.objects:
            assert any(contains_point(o, p) for p in sol.witness)
    assert separated[0] > 0


def test_pierce_cluster_recursion_matches_oracle(monkeypatch):
    separated = count_calls(monkeypatch, _PierceSearch, "_separated")
    cfg = SolveConfig(base_threshold=2)
    for seed in range(6):
        inst = gen_instance("cluster", 2, shape="box", clusters=3, cluster_size=4, seed=seed)
        sol = solve_pierce(inst, cfg)
        assert sol.value == brute_pierce(inst).value
    assert separated[0] > 0


def test_pierce_builds_one_candidate_table(monkeypatch):
    # Separated nodes, pivots and base cases all search masks over the one
    # table built for the solve.
    inst = gen_instance("random", 2, shape="box", n=14, seed=1)
    want = brute_pierce(inst).value
    separated = count_calls(monkeypatch, _PierceSearch, "_separated")
    pivots = count_calls(monkeypatch, _PierceSearch, "_pivot")
    points = count_calls(monkeypatch, candidates, "candidate_pierce_points")
    masks = count_calls(monkeypatch, candidates, "coverage_masks")
    sol = solve_pierce(inst, SolveConfig(base_threshold=2))
    assert sol.value == want
    assert separated[0] > 0 and pivots[0] > 0
    assert points[0] == 1 and masks[0] == 1


def test_pierce_at_least_pack():
    for seed in range(20):
        inst = inst_of(random_objects(seed, 12))
        assert solve_pierce(inst).value >= solve_pack(inst).value


# --- boundary enumeration -------------------------------------------------


def independent_sets(objs, mask=None):
    ctx = IntersectionContext(objs)
    return list(ctx.independent_sets(ctx.full_mask() if mask is None else mask))


def test_enumerate_empty_boundary():
    assert independent_sets([]) == [[]]


def test_enumerate_two_intersecting():
    objs = [Ball((0, 0), 1), Ball((0.5, 0), 1)]
    got = sorted(map(tuple, independent_sets(objs)))
    assert got == [(), (0,), (1,)]


def test_enumerate_matches_powerset_filter():
    rng = random.Random(0)
    for seed in range(10):
        objs = random_objects(seed, 6)
        # The full mask, then a random proper sub-mask of it.
        for mask in (63, rng.randrange(1, 63)):
            got = independent_sets(objs, mask)
            want = []
            for m in range(64):
                if m & ~mask:
                    continue
                ids = [i for i in range(6) if m >> i & 1]
                if all(
                    not intersects(objs[a], objs[b])
                    for x, a in enumerate(ids)
                    for b in ids[x + 1 :]
                ):
                    want.append(tuple(ids))
            assert sorted(map(tuple, got)) == sorted(want)
            assert all(s == sorted(s) for s in got)
            assert got[0] == []  # the empty set comes first


# --- pivot fallback ---------------------------------------------------------


def test_forced_fallback_same_value(monkeypatch):
    # balance_cap near zero declares every separator unbalanced, forcing the
    # pivot path throughout; values must still match the oracle and the
    # unforced solve.
    pack_pivots = count_calls(monkeypatch, _PackSearch, "_pivot")
    pierce_pivots = count_calls(monkeypatch, _PierceSearch, "_pivot")
    forced = SolveConfig(base_threshold=4, balance_cap=1e-9)
    normal = SolveConfig(base_threshold=4)
    for seed in range(10):
        inst = inst_of(random_objects(seed, 14))
        value = solve_pack(inst, forced).value
        assert value == brute_pack(inst).value
        assert value == solve_pack(inst, normal).value
    forced = SolveConfig(base_threshold=3, balance_cap=1e-9)
    normal = SolveConfig(base_threshold=3)
    for seed in range(6):
        inst = gen_instance("random", 2, shape="box", n=10, seed=seed)
        value = solve_pierce(inst, forced).value
        assert value == brute_pierce(inst).value
        assert value == solve_pierce(inst, normal).value
    assert pack_pivots[0] > 0 and pierce_pivots[0] > 0


# --- determinism / node cap -------------------------------------------------


def test_pierce_determinism():
    inst = gen_instance("random", 2, shape="box", n=12, seed=7)
    a = solve_pierce(inst, SolveConfig(base_threshold=3))
    b = solve_pierce(inst, SolveConfig(base_threshold=3))
    assert (a.value, a.witness, a.nodes) == (b.value, b.witness, b.nodes)


def test_node_cap_aborts_with_lower_bound():
    inst = gen_instance("cluster", 2, clusters=4, cluster_size=5, seed=1)
    sol = solve_pack(inst, SolveConfig(base_threshold=1, node_cap=3))
    assert not sol.optimal
    exact = solve_pack(inst).value
    assert sol.value <= exact  # greedy best-so-far is a valid lower bound
    wit = [inst.objects[i] for i in sol.witness]
    for i, a in enumerate(wit):
        for b in wit[i + 1 :]:
            assert not intersects(a, b)


def test_node_cap_pierce_feasible():
    inst = gen_instance("random", 2, shape="box", n=14, seed=2)
    sol = solve_pierce(inst, SolveConfig(base_threshold=1, node_cap=2))
    assert not sol.optimal
    assert sol.value == greedy_pierce(list(inst.objects)).value
    for o in inst.objects:
        assert any(contains_point(o, p) for p in sol.witness)
