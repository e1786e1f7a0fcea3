import random

import pytest

from fatsep import candidates
from fatsep.geometry import AxisBox, Ball, contains_point
from fatsep.instances import Instance, gen_instance
from fatsep.oracle import (
    OracleSizeError,
    brute_pack,
    brute_pierce,
    fine_grid_pierce,
)
from conftest import random_objects
from milp_reference import milp_pack, milp_pierce


def inst_of(objs, d=2):
    return Instance(dim=d, objects=tuple(objs))


def test_brute_pack_disjoint():
    res = brute_pack(inst_of([Ball((10 * i, 0), 1) for i in range(3)]))
    assert res.value == 3


def test_brute_pack_clique():
    res = brute_pack(inst_of([Ball((0.1 * i, 0), 5) for i in range(5)]))
    assert res.value == 1


def test_brute_pack_path_graph():
    # Three disks in a row, only neighbours touch: endpoints form the optimum.
    res = brute_pack(inst_of([Ball((0, 0), 1.1), Ball((2, 0), 1.1), Ball((4, 0), 1.1)]))
    assert res.value == 2
    assert res.witness == [0, 2]


def test_brute_pack_guard():
    with pytest.raises(OracleSizeError):
        brute_pack(inst_of([Ball((10 * i, 0), 1) for i in range(25)]))


def test_brute_pack_permutation_invariant():
    rng = random.Random(17)
    for seed in range(15):
        inst = inst_of(random_objects(seed, 12))
        base = brute_pack(inst).value
        order = list(range(12))
        rng.shuffle(order)
        assert brute_pack(inst, order=order).value == base


def test_brute_pack_witness_feasible():
    from fatsep.geometry import intersects

    for seed in range(10):
        inst = inst_of(random_objects(seed, 14))
        res = brute_pack(inst)
        wit = [inst.objects[i] for i in res.witness]
        assert len(wit) == res.value
        for i, a in enumerate(wit):
            for b in wit[i + 1 :]:
                assert not intersects(a, b)


def test_brute_pierce_disjoint():
    res = brute_pierce(inst_of([Ball((10 * i, 0), 1) for i in range(4)]))
    assert res.value == 4


def test_brute_pierce_common_point():
    res = brute_pierce(inst_of([Ball((0, 0), float(r)) for r in range(1, 6)]))
    assert res.value == 1


def test_brute_pierce_guard():
    with pytest.raises(OracleSizeError):
        brute_pierce(inst_of([Ball((10 * i, 0), 1) for i in range(15)]))


def test_brute_pierce_witness_feasible():
    for seed in range(10):
        inst = inst_of(random_objects(seed, 9, shape="box"))
        res = brute_pierce(inst)
        assert len(res.witness) == res.value
        for o in inst.objects:
            assert any(contains_point(o, p) for p in res.witness)


def test_brute_pierce_sweeps_boxes_itself(monkeypatch):
    # The oracle takes box candidates from its own scalar sweep, so a fault
    # in the table's numpy sweep cannot hide behind a reference that runs it.
    families = [
        gen_instance("random", d, shape="box", n=n, seed=seed, density=rho)
        for d, n in ((2, 10), (3, 8))
        for seed in range(3)
        for rho in (1, 8)
    ]
    families += [inst_of([]), inst_of([AxisBox((0.0, 1.0), (2.0, 2.0))])]
    want = [brute_pierce(inst) for inst in families]

    def broken(*args, **kwargs):
        raise AssertionError("the oracle ran the table's box sweep")

    monkeypatch.setattr(candidates, "_box_sweep", broken)
    assert [brute_pierce(inst) for inst in families] == want
    assert [r.value for r in want[-2:]] == [0, 1]


@pytest.mark.parametrize("shape", ["ball", "box"])
def test_fine_grid_agrees_with_candidates(shape):
    for seed in range(8):
        inst = gen_instance("random", 2, shape=shape, n=8, seed=seed)
        assert brute_pierce(inst).value == fine_grid_pierce(inst).value


def test_fine_grid_rejects_d3():
    inst = gen_instance("random", 3, shape="box", n=5, seed=0)
    with pytest.raises(ValueError):
        fine_grid_pierce(inst)


@pytest.mark.parametrize("shape, d", [("ball", 2), ("box", 2), ("box", 3)])
def test_milp_reference_agrees_with_brute_force(shape, d):
    # The MILP reference that checks the solvers above the guards must
    # agree with the brute-force oracles below them, sparse and dense.
    for density in (1, 8):
        for seed in range(10):
            inst = gen_instance("random", d, shape=shape, n=12, seed=seed, density=density)
            assert milp_pack(inst.objects) == brute_pack(inst).value, (inst.label, density)
            assert milp_pierce(inst.objects) == brute_pierce(inst).value, (inst.label, density)
