import math

import pytest

from fatsep.geometry import Ball, contains_point, intersects
from fatsep.instances import Instance, gen_instance
from fatsep.measure import greedy_pack
from fatsep.ptas import PtasConfig, ptas_pack, ptas_pierce
from fatsep.solver import SolveConfig, solve_pack, solve_pierce


def inst_of(objs, d=2):
    return Instance(dim=d, objects=tuple(objs))


def test_stop_threshold_forms():
    assert PtasConfig(epsilon=0.5, c_stop=1.0).stop_threshold(2) == 4
    assert PtasConfig(epsilon=0.25, c_stop=1.0).stop_threshold(2) == 16
    assert PtasConfig(epsilon=0.5, c_stop=3.0).stop_threshold(3) == 216


def test_epsilon_validation():
    with pytest.raises(ValueError):
        PtasConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        PtasConfig(epsilon=1.0)


def test_small_instance_is_exact():
    inst = gen_instance("random", 2, n=12, seed=1)
    sol = ptas_pack(inst)
    assert sol.optimal and sol.discarded == 0
    assert sol.value == solve_pack(inst).value
    psol = ptas_pierce(inst)
    assert psol.optimal
    assert psol.value == solve_pierce(inst).value


def test_abort_flag_tracks_exact_leaves():
    # A leaf that hits the node cap makes the whole run aborted and not
    # optimal, even though nothing was discarded.
    inst = gen_instance("cluster", 2, clusters=4, cluster_size=5, seed=1)
    sol = ptas_pack(inst, PtasConfig(solve=SolveConfig(base_threshold=1, node_cap=3)))
    assert sol.aborted and not sol.optimal and sol.discarded == 0
    # Discarding boundary objects loses optimality but is no abort.
    inst = gen_instance("random", 2, n=80, seed=1)
    sol = ptas_pack(inst, PtasConfig(epsilon=0.5))
    assert sol.discarded > 0 and not sol.optimal and not sol.aborted


def test_far_clusters_exact_nothing_discarded():
    # each cluster fits under the stop threshold, so the recursion splits
    # between clusters (empty boundary) and closes each one exactly
    inst = gen_instance("cluster", 2, clusters=3, cluster_size=4, seed=2)
    cfg = PtasConfig(epsilon=0.5, c_stop=1.0)  # stop=4 < 12, recursion fires
    sol = ptas_pack(inst, cfg)
    assert sol.value == solve_pack(inst).value
    assert sol.discarded == 0
    psol = ptas_pierce(inst, cfg)
    assert psol.value == solve_pierce(inst).value


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_pack_ratio_bound(eps):
    cfg = PtasConfig(epsilon=eps, solve=SolveConfig(base_threshold=6))
    for seed in range(6):
        inst = gen_instance("random", 2, n=28, seed=seed, density=2.0)
        sol = ptas_pack(inst, cfg)
        opt = solve_pack(inst).value
        assert sol.value >= (1 - eps) * opt
        wit = [inst.objects[i] for i in sol.witness]
        assert len(wit) == sol.value
        for i, a in enumerate(wit):
            for b in wit[i + 1 :]:
                assert not intersects(a, b)


@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_pierce_ratio_bound(eps):
    cfg = PtasConfig(epsilon=eps, c_stop=1.0, solve=SolveConfig(base_threshold=4))
    for seed in range(8):
        inst = gen_instance("cluster", 2, shape="box", clusters=4, cluster_size=5, seed=seed)
        sol = ptas_pierce(inst, cfg)
        opt = solve_pierce(inst, SolveConfig(base_threshold=4)).value
        assert sol.value <= (1 + eps) * opt
        for o in inst.objects:
            assert any(contains_point(o, p) for p in sol.witness)


def test_witness_feasible_even_when_lossy():
    # dense instance where boundary discarding actually loses objects
    cfg = PtasConfig(epsilon=0.5, c_stop=1.0, solve=SolveConfig(base_threshold=4))
    lossy = 0
    for seed in range(15):
        inst = gen_instance("random", 2, n=50, seed=seed, density=3.0)
        sol = ptas_pack(inst, cfg)
        lossy += sol.discarded
        wit = [inst.objects[i] for i in sol.witness]
        for i, a in enumerate(wit):
            for b in wit[i + 1 :]:
                assert not intersects(a, b)
    assert lossy > 0  # the discard path was actually exercised


def test_depth_bounded_by_balance_law():
    cfg = PtasConfig(epsilon=0.5, c_stop=1.0, solve=SolveConfig(base_threshold=6))
    for seed in range(8):
        inst = gen_instance("random", 2, n=60, seed=seed, density=2.0)
        sol = ptas_pack(inst, cfg)
        from fatsep.measure import greedy_pack

        est = max(greedy_pack(list(inst.objects)).value, 2)
        alpha_eff = 1.0 - cfg.solve.balance_cap
        bound = math.ceil(math.log(est) / math.log(1.0 / (1.0 - alpha_eff))) + 1
        assert sol.depth <= bound


def test_pack_leaf_finishes_under_a_work_cap():
    # Without the per-solve memo, one exact leaf of this run re-solved the
    # same masks for minutes.  Memoized, its largest leaf makes about 108k
    # budget ticks; the cap bounds that work, not the wall time.
    inst = gen_instance("random", 2, shape="ball", n=400, seed=23)
    eps = 0.5
    cfg = PtasConfig(epsilon=eps, c_stop=2.0, solve=SolveConfig(node_cap=150_000))
    sol = ptas_pack(inst, cfg)
    assert not sol.aborted
    wit = [inst.objects[i] for i in sol.witness]
    assert len(wit) == sol.value
    assert not any(intersects(a, b) for i, a in enumerate(wit) for b in wit[i + 1 :])
    # Pack >= greedy, so the (1 - eps) guarantee implies this bound.
    assert sol.value >= (1 - eps) * greedy_pack(inst.objects).value
