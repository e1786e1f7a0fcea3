import json
import math
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fatsep import candidates, measure, ptas, separator, solver
from fatsep.geometry import TOL, AxisBox, Ball, contains_point, intersects, size
from fatsep.instances import Instance, gen_instance
from fatsep.measure import IntersectionContext, greedy_pack, greedy_pierce
from fatsep.ptas import PtasConfig, ptas_pack, ptas_pierce
from fatsep.separator import separate
from fatsep.solver import SolveConfig, solve_pack, solve_pierce

from conftest import equal_size, equal_size_balls, families_and_masks, shifted


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
    # optimal, even though nothing was discarded.  An independent part
    # searches nothing: this dense family's dominance kernel is not one.
    inst = gen_instance("random", 2, n=40, seed=2, density=8)
    sol = ptas_pack(inst, PtasConfig(solve=SolveConfig(base_threshold=1, node_cap=3)))
    assert sol.aborted and not sol.optimal and sol.discarded == 0
    # Discarding boundary objects loses optimality but is no abort.  (The
    # dominance kernel of a sparse random ball family is often independent,
    # and then nothing is split: this dense one splits.)
    inst = gen_instance("random", 2, n=200, seed=0, density=8)
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
    # The PTAS splits this equal-size family and its largest exact leaf
    # makes about 70k budget ticks: a tenth of the cap aborts it, and the
    # cap bounds that work, not the wall time.
    inst = equal_size_balls(250, 1)
    eps = 0.5
    cfg = PtasConfig(epsilon=eps, c_stop=2.0, solve=SolveConfig(node_cap=100_000))
    assert ptas_pack(inst, replace(cfg, solve=SolveConfig(node_cap=10_000))).aborted
    sol = ptas_pack(inst, cfg)
    assert sol.discarded > 0 and not sol.aborted
    wit = [inst.objects[i] for i in sol.witness]
    assert len(wit) == sol.value
    assert not any(intersects(a, b) for i, a in enumerate(wit) for b in wit[i + 1 :])
    # Pack >= greedy, so the (1 - eps) guarantee implies this bound.
    assert sol.value >= (1 - eps) * greedy_pack(inst.objects).value


# (n, density, seed) of random ball families in d = 2 whose dominance kernel
# is independent: the PTAS closes it exactly instead of splitting it.
INDEPENDENT_KERNELS = {(400, 1, s) for s in (0, 1, 2, 3, 4, 23)} | {(200, 8, 1), (200, 8, 2), (200, 8, 3), (400, 8, 3)}


@pytest.mark.parametrize(
    "n, density, seed",
    [pytest.param(400, 1, s, id=str(s)) for s in (0, 1, 2, 3, 4, 23)]
    + [pytest.param(n, 8, s, id=f"rho8-n{n}-{s}") for n in (200, 400) for s in range(4)]
    + [pytest.param(400, 4, 2, id="rho4-n400-2")],
)
def test_pack_refill_reaches_greedy(n, density, seed):
    # Dropped boundaries leave room: the refill adds, smallest first, every
    # object that meets no chosen one, so the answer is a maximal packing
    # (ρ=1 n=400 seed 23 gave 212 against greedy's 250 without it, when its
    # parts were split).  On dense families the refilled answer can still
    # fall below greedy's (ρ=8 n=200 gave 41 and 44 against 45 and 45 on
    # seeds 0 and 3, n=400 96 against 99 on seed 1, when every part above
    # the stop threshold was split); then the whole family's greedy packing
    # is the answer.  An independent kernel is closed exactly, nothing
    # dropped, so the answer is optimal.
    inst = gen_instance("random", 2, shape="ball", n=n, seed=seed, density=density)
    sol = ptas_pack(inst, PtasConfig(epsilon=0.5, c_stop=2.0))
    if (n, density, seed) in INDEPENDENT_KERNELS:
        assert sol.discarded == 0 and sol.optimal
    else:
        assert sol.discarded > 0
    assert sol.value >= greedy_pack(inst.objects).value
    wit = [inst.objects[i] for i in sol.witness]
    assert len(wit) == sol.value
    assert not any(intersects(a, b) for i, a in enumerate(wit) for b in wit[i + 1 :])
    assert all(any(intersects(o, w) for w in wit) for o in inst.objects)


@pytest.mark.parametrize("density", [1, 8])
@pytest.mark.parametrize("seed", range(4))
def test_pierce_drops_redundant_points(seed, density):
    # The greedy boundary covers overlap the leaves' covers; dropping, in
    # reverse pick order, each point whose objects the others all pierce
    # brings the answer to greedy's or below (without it, ρ=8 gave 78, 73,
    # 71, 68 against greedy's 76, 73, 71, 74).
    inst = gen_instance("random", 2, shape="box", n=200, seed=seed, density=density)
    sol = ptas_pierce(inst, PtasConfig(epsilon=0.5, c_stop=2.0))
    assert sol.discarded > 0
    assert sol.value == len(sol.witness) <= greedy_pierce(inst.objects).value
    pierced = [{i for i, o in enumerate(inst.objects) if contains_point(o, p)} for p in sol.witness]
    for k, own in enumerate(pierced):
        others = set().union(*pierced[:k], *pierced[k + 1 :])
        assert own - others
    assert set().union(*pierced) == set(range(inst.n))


@pytest.mark.parametrize("shape", ["box", "ball"])
def test_cover_boundary_covers_what_its_points_pierce(shape):
    # The covered mask joins every returned row's coverage over the whole
    # family, on both sides of the split, not only the boundary's.
    for seed in range(2):
        for density in (1, 8):
            inst = gen_instance("random", 2, shape=shape, n=60, seed=seed, density=density)
            search = solver._PierceSearch(IntersectionContext(inst.objects), SolveConfig(epsilon=0.5))
            boundary = search.split(search.ctx.full_mask())[2]
            cost, rows, covered = ptas._cover_boundary(search, boundary)
            assert cost == len(rows) >= 2
            points = [search.table.points[r] for r in rows]
            want = sum(1 << i for i, o in enumerate(search.ctx.objs) if any(contains_point(o, p) for p in points))
            assert covered == want
            assert covered & boundary == boundary


# --- independent parts -------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(families_and_masks(), st.data())
def test_greedy_estimates_reach_the_size_exactly_on_independent_masks(case, data):
    # The PTAS closes a part whose greedy estimate equals its size, taking
    # it for independent: greedy packing takes every object of a mask just
    # when no two meet, and greedy piercing then spends one point per object
    # and otherwise, in the first round that holds two that meet, picks a
    # point that pierces both.  The piercing table takes balls in d = 2 only.
    objs, mask = case
    assume(isinstance(objs[0], AxisBox) or len(objs[0].center) == 2)
    ctx = IntersectionContext(objs)
    # A random mask is seldom independent: half the cases take the mask's
    # greedy packing with one object added, which may meet it or not.
    if data.draw(st.booleans()):
        mask = ctx.greedy_pack_mask(mask)[1] | 1 << data.draw(st.integers(0, len(objs) - 1))
    independent = all(ctx.nbr[i] & mask == 1 << i for i in measure.mask_to_ids(mask))
    count = mask.bit_count()
    assert (solver._PackSearch(ctx, SolveConfig()).estimate(mask) == count) == independent
    assert (solver._PierceSearch(ctx, SolveConfig()).estimate(mask) == count) == independent


@st.composite
def tol_gap_boxes(draw):
    """(objects, mask): a row of unit squares along axis 0, each the one
    before it moved by its side plus 0 to 2 TOL, so neighbours meet, just
    touch or lie just apart, and a mask of at least two of them."""
    n = draw(st.integers(2, 12))
    gaps = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]), min_size=n, max_size=n))
    objs, x = [], 0.0
    for gap in gaps:
        objs.append(AxisBox((x, 0.0), (x + 1.0, 1.0)))
        x += 1.0 + gap * TOL
    bits = draw(st.sets(st.integers(0, n - 1), min_size=2))
    return objs, sum(1 << i for i in bits)


@settings(max_examples=150, deadline=None)
@given(st.one_of(families_and_masks(max_n=30), tol_gap_boxes()), st.data())
def test_independent_piercing_greedy_is_the_exact_search(case, data):
    # Where greedy piercing spends one point per object of a mask, no kept
    # row of the mask's restricted table pierces two of its objects, and
    # the greedy rows are the exact search's, in its order: the PTAS
    # answers such a part with them.
    objs, mask = case
    assume(isinstance(objs[0], AxisBox) or len(objs[0].center) == 2)
    ctx = IntersectionContext(objs)
    if data.draw(st.booleans()):
        mask = ctx.greedy_pack_mask(mask)[1] | 1 << data.draw(st.integers(0, len(objs) - 1))
    search = solver._PierceSearch(ctx, SolveConfig())
    kept = search.table.restrict(mask)
    rows = search.table.greedy(mask, kept)
    if len(rows) == mask.bit_count():
        assert all((search.table.cov[r] & mask).bit_count() == 1 for r in measure.mask_to_ids(kept))
        assert rows == search.run(mask)[0]


@pytest.mark.parametrize("shape", ["ball", "box"])
def test_disjoint_family_is_closed_without_a_split(monkeypatch, shape):
    # No two objects of a grid family meet: both schemes answer every
    # object, exactly, without a separator call.
    inst = gen_instance("grid", 2, shape=shape, k=10, seed=1)
    splits = count_everywhere(monkeypatch, separator, "separate")
    cfg = PtasConfig(epsilon=0.5, c_stop=2.0)
    for solve in (ptas_pack, ptas_pierce):
        sol = solve(inst, cfg)
        assert sol.value == inst.n and sol.discarded == 0 and sol.optimal
    assert not splits


@pytest.mark.parametrize("shape", ["ball", "box"])
def test_one_meeting_pair_still_splits(monkeypatch, shape):
    # The grid with its second object replaced by a copy of the first moved
    # a little, so the copy meets the first and nothing else: the greedy
    # piercing estimate falls one short of the size, and piercing splits
    # the family.  Packing starts from the dominance kernel, which keeps
    # one of the pair, so it closes an independent kernel exactly.
    grid = gen_instance("grid", 2, shape=shape, k=10, seed=1).objects
    inst = inst_of([grid[0], shifted(grid[0], 0.1), *grid[2:]])
    ctx = IntersectionContext(inst.objects)
    assert sum(nbr.bit_count() - 1 for nbr in ctx.nbr) == 2
    splits = count_everywhere(monkeypatch, separator, "separate")
    cfg = PtasConfig(epsilon=0.5, c_stop=2.0)
    sol = ptas_pierce(inst, cfg)
    assert splits and sol.value == inst.n - 1
    assert all(any(contains_point(o, p) for p in sol.witness) for o in inst.objects)
    del splits[:]
    sol = ptas_pack(inst, cfg)
    assert not splits
    assert sol.value == inst.n - 1 and sol.optimal


# --- one context per call ---------------------------------------------------


def reference_kernel(objs):
    """The given positions of the objects that neighbourhood domination
    keeps, sorted, from `intersects` alone: in (size, given position) order,
    each pass drops every object u that has a neighbour v with N[v] ⊆ N[u]
    among the objects left (of twins the later in that order), until a pass
    drops nothing."""
    order = sorted(range(len(objs)), key=lambda i: (size(objs[i]), i))
    rank = {i: r for r, i in enumerate(order)}
    nbr = {i: {j for j in order if intersects(objs[i], objs[j])} for i in order}
    kept = set(order)
    dropped = True
    while dropped:
        dropped = False
        for u in [i for i in order if i in kept]:
            nu = nbr[u] & kept
            if any(nbr[v] & kept <= nu and (nbr[v] & kept != nu or rank[v] < rank[u]) for v in nu - {u}):
                kept.discard(u)
                dropped = True
    return sorted(kept)


def reference_ptas_pack(inst, cfg):
    """The object-list recursion `ptas_pack` replaced, from the family's
    `reference_kernel`: each part is copied into an instance of its own,
    estimated with `greedy_pack`, answered whole when that estimate equals
    the part's size (an independent part), split with `separate` when it
    lies above the stop threshold and, at a leaf, closed by `solve_pack`.
    Then every object of the family, smallest first, that meets no chosen
    object joins the answer, and the whole family's `greedy_pack` replaces
    it when that is larger."""
    stop = cfg.stop_threshold(inst.dim)
    stats = {"nodes": 0, "depth": 0, "discarded": 0, "aborted": False}

    def rec(ids, depth):
        stats["nodes"] += 1
        stats["depth"] = max(stats["depth"], depth)
        if not ids:
            return 0, []
        sub = Instance(dim=inst.dim, objects=tuple(inst.objects[i] for i in ids))
        objs = list(sub.objects)
        g = greedy_pack(objs).value
        if g == len(ids):
            return g, list(ids)
        sep = None
        if g > stop:
            sep = separate(objs, cfg.solve.separator_config())
        if sep is None or sep.unbalanced(cfg.solve.balance_cap):
            sol = solve_pack(sub, cfg.solve)
            stats["nodes"] += sol.nodes
            stats["aborted"] |= sol.aborted
            return sol.value, [ids[j] for j in sol.witness]
        stats["discarded"] += len(sep.boundary_ids)
        vin, win = rec([ids[j] for j in sep.inside_ids], depth + 1)
        vout, wout = rec([ids[j] for j in sep.outside_ids], depth + 1)
        return vin + vout, win + wout

    _, witness = rec(reference_kernel(inst.objects), 0)
    for i in sorted(range(inst.n), key=lambda i: (size(inst.objects[i]), i)):
        if not any(intersects(inst.objects[i], inst.objects[j]) for j in witness):
            witness.append(i)
    floor = greedy_pack(list(inst.objects))
    if floor.value > len(witness):
        witness = floor.witness
    return (
        len(witness),
        sorted(witness),
        stats["nodes"],
        stats["depth"],
        stats["discarded"],
        stats["discarded"] == 0 and not stats["aborted"],
        stats["aborted"],
    )


@pytest.mark.parametrize("shape", ["ball", "box"])
def test_pack_matches_object_list_recursion(shape):
    # The dominance kernels of the sparse families are independent, so only
    # the dense equal-size ones split.
    runs = [
        (
            make(gen_instance("random", 2, shape=shape, n=n, seed=seed, density=density)),
            PtasConfig(epsilon=eps, c_stop=c_stop, solve=SolveConfig(base_threshold=base)),
        )
        for eps, c_stop, base in ((0.5, 1.0, 4), (0.5, 2.0, 12), (0.25, 1.0, 6))
        for make, n, density, seeds in (
            (lambda inst: inst, 20, 1, range(4)),
            (lambda inst: inst, 60, 1, range(3)),
            (equal_size, 100, 8, (1, 3)),
        )
        for seed in seeds
    ]
    # The node-cap case of test_abort_flag_tracks_exact_leaves, on a dense
    # family of each shape whose dominance kernel is not independent.
    runs.append(
        (
            gen_instance("random", 2, shape=shape, n=40, seed={"ball": 2, "box": 7}[shape], density=8),
            PtasConfig(solve=SolveConfig(base_threshold=1, node_cap=3)),
        )
    )
    discarded = aborted = 0
    for inst, cfg in runs:
        sol = ptas_pack(inst, cfg)
        got = (sol.value, sol.witness, sol.nodes, sol.depth, sol.discarded, sol.optimal, sol.aborted)
        assert got == reference_ptas_pack(inst, cfg), (inst.label, cfg)
        discarded += sol.discarded
        aborted += sol.aborted
    # Both the boundary drop and a capped leaf were compared.
    assert discarded and aborted


def count_everywhere(monkeypatch, module, name, within=(candidates, measure, ptas, separator, solver)):
    """Wrap `module.name` in every module of `within` that binds it, so calls
    through an imported name count too; returns the list of calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in within:
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def count_contexts(monkeypatch):
    """Record the size of every `IntersectionContext` built from a list of
    objects."""
    contexts = []
    init = IntersectionContext.__init__

    def counted_init(self, objs):
        contexts.append(len(objs))
        init(self, objs)

    monkeypatch.setattr(IntersectionContext, "__init__", counted_init)
    return contexts


def test_pierce_builds_one_context_and_one_table(monkeypatch):
    inst = gen_instance("random", 2, shape="box", n=60, seed=1)
    contexts = count_contexts(monkeypatch)
    sweeps = count_everywhere(monkeypatch, candidates, "_box_sweep")
    points = count_everywhere(monkeypatch, candidates, "candidate_pierce_points")
    masks = count_everywhere(monkeypatch, candidates, "coverage_masks")
    splits = count_everywhere(monkeypatch, separator, "separate")
    # Nothing may call these; `separate` measures its parts on its context.
    solves = [
        count_everywhere(monkeypatch, module, name)
        for module, name in (
            (solver, "solve_pack"),
            (solver, "solve_pierce"),
            (measure, "greedy_pack"),
            (measure, "greedy_pierce"),
        )
    ]
    sol = ptas_pierce(inst, PtasConfig(epsilon=0.5, c_stop=1.0))
    assert sol.discarded > 0 and splits
    # One table sweep; the box family never gets a coverage pass.
    assert len(sweeps) == 1
    assert not points and not masks
    assert not any(solves)
    # `separate` runs on subfamilies of the solve's one context.
    assert len(contexts) == 1
    for o in inst.objects:
        assert any(contains_point(o, p) for p in sol.witness)


def test_pack_solves_build_one_context(monkeypatch):
    # An exact packing that reaches separated nodes, and the packing PTAS,
    # each separate on subfamilies of the one context they build.
    contexts = count_contexts(monkeypatch)
    splits = count_everywhere(monkeypatch, separator, "separate")
    separated = []
    original = solver._PackSearch._separated

    def counted(self, *args):
        separated.append(args)
        return original(self, *args)

    monkeypatch.setattr(solver._PackSearch, "_separated", counted)
    inst = gen_instance("random", 2, n=24, seed=0, density=8)
    sol = solve_pack(inst, SolveConfig(base_threshold=1))
    assert sol.optimal and separated and splits
    assert contexts == [inst.n]
    del contexts[:], splits[:]
    inst = gen_instance("random", 2, n=200, seed=0, density=8)
    sol = ptas_pack(inst, PtasConfig(epsilon=0.5, c_stop=1.0))
    assert sol.discarded > 0 and splits
    assert contexts == [inst.n]


def count_table_builds(monkeypatch):
    """Count the builds of the separator's tables (`rank_axes`) and of the
    clique partition (`cliques`) of every context."""
    builds = {"rank_axes": 0, "cliques": 0}
    for name in builds:
        build = vars(IntersectionContext)[name].func

        def counted(self, build=build, name=name):
            builds[name] += 1
            return build(self)

        table = cached_property(counted)
        table.__set_name__(IntersectionContext, name)
        monkeypatch.setattr(IntersectionContext, name, table)
    return builds


def test_solves_build_one_set_of_separator_tables(monkeypatch):
    # Every split of a solve reads the solve's own tables through its mask:
    # the packing PTAS on a family of the benchmark's size that it splits
    # and an exact packing that reaches separated nodes each build them once.
    builds = count_table_builds(monkeypatch)
    splits = count_everywhere(monkeypatch, separator, "separate")
    inst = gen_instance("random", 2, shape="ball", n=400, seed=2, density=4.0)
    sol = ptas_pack(inst, PtasConfig(epsilon=0.5, c_stop=2.0))
    assert sol.discarded > 0 and len(splits) > 1
    assert builds == {"rank_axes": 1, "cliques": 1}
    separated = []
    original = solver._PackSearch._separated

    def counted(self, *args):
        separated.append(args)
        return original(self, *args)

    monkeypatch.setattr(solver._PackSearch, "_separated", counted)
    builds.update(rank_axes=0, cliques=0)
    del splits[:]
    sol = solve_pack(gen_instance("random", 2, n=24, seed=0, density=8), SolveConfig(base_threshold=1))
    assert sol.optimal and separated and len(splits) > 1
    assert builds == {"rank_axes": 1, "cliques": 1}


def test_ptas_answers_pinned_on_the_seed_1_benchmark_mix():
    # The six instances of the ptas-large mix of `perfbench/run.py --seed 1`
    # (30 s) at its PTAS settings, with the value, witness, nodes, depth and
    # discarded count of each solve.  The `ptas_pierce` rows were recorded
    # at commit 3695a73, before the base-box ladder was computed rung by
    # rung, the shells' corners in one array and each greedy walk once per
    # solve; the `ptas_pack` rows' values and witnesses when an independent
    # part came to be closed exactly, and their node counts when it came to
    # be answered by its greedy witness: each of these kernels is
    # independent, so nothing is split, searched or discarded.
    pinned = json.loads(Path(__file__).with_name("ptas_large_seed1.json").read_text())
    assert len(pinned) == 6
    cfg = PtasConfig(epsilon=0.5, c_stop=2.0)
    for rec in pinned:
        _, shape, d, n, seed = rec["label"].split("-")
        inst = gen_instance("random", int(d[1:]), shape=shape, n=int(n[1:]), seed=int(seed[1:]))
        sol = getattr(ptas, rec["problem"])(inst, cfg)
        witness = sol.witness if sol.problem == "pack" else [list(p) for p in sol.witness]
        got = (sol.value, witness, sol.nodes, sol.depth, sol.discarded)
        assert got == (rec["value"], rec["witness"], rec["nodes"], rec["depth"], rec["discarded"]), rec["label"]


def test_ptas_walks_each_mask_once_per_solve(monkeypatch):
    # A part's estimate, its split's measures, its leaf's search and the
    # packing refill share one greedy walk per mask.  The memo goes with the
    # solve: the next solve of the same instance walks as much again.
    contexts, walks = [], []
    init, walk = IntersectionContext.__init__, IntersectionContext.greedy_pack_mask

    def recorded_init(self, objs):
        init(self, objs)
        contexts.append(self)

    def recorded_walk(self, mask):
        walks.append((self, mask))
        return walk(self, mask)

    monkeypatch.setattr(IntersectionContext, "__init__", recorded_init)
    monkeypatch.setattr(IntersectionContext, "greedy_pack_mask", recorded_walk)
    cfg = PtasConfig(epsilon=0.5, c_stop=1.0)
    for solve, shape, n, seed in ((ptas_pack, "ball", 200, 0), (ptas_pierce, "box", 120, 1)):
        inst = gen_instance("random", 2, shape=shape, n=n, seed=seed, density=8)
        counts = []
        for _ in range(2):
            del contexts[:], walks[:]
            assert solve(inst, cfg).discarded > 0
            (ctx,) = contexts
            assert "greedy_pack_mask" not in vars(ctx)
            masks = [mask for owner, mask in walks if owner is ctx]
            assert len(masks) == len(walks) == len(set(masks))
            counts.append(len(masks))
        assert counts[0] == counts[1] > 1


def test_ptas_pierce_restricts_each_mask_once_per_solve(monkeypatch):
    # A leaf's estimate and its search restrict the same mask; the solve's
    # table restricts it once.  The memo goes with the solve.
    tables, restricts = [], []
    init, restrict = measure.PierceTable.__init__, measure.PierceTable.restrict

    def recorded_init(self, ctx):
        init(self, ctx)
        tables.append(self)

    def recorded_restrict(self, mask):
        restricts.append((self, mask))
        return restrict(self, mask)

    monkeypatch.setattr(measure.PierceTable, "__init__", recorded_init)
    monkeypatch.setattr(measure.PierceTable, "restrict", recorded_restrict)
    cfg = PtasConfig(epsilon=0.5, c_stop=2.0)
    for seed in (0, 2):
        inst = gen_instance("random", 2, shape="box", n=90, seed=seed)
        counts = []
        for _ in range(2):
            del tables[:], restricts[:]
            assert ptas_pierce(inst, cfg).discarded > 0
            (table,) = tables
            assert "restrict" not in vars(table)
            masks = [mask for owner, mask in restricts if owner is table]
            assert len(masks) == len(restricts) == len(set(masks))
            counts.append(len(masks))
        assert counts[0] == counts[1] > 1


@pytest.mark.parametrize(
    "solve, shape, n, seeds",
    [
        pytest.param(ptas_pack, "ball", 400, range(5), id="ptas_pack-ball-400-seeds0"),
        pytest.param(ptas_pierce, "box", 90, range(3), id="ptas_pierce-box-90-seeds1"),
    ],
)
def test_ptas_large_pool_discards_on_every_instance(solve, shape, n, seeds):
    # The ptas-large benchmark fails a run whose PTAS solves discard nothing
    # in sum (they would all have fallen through to the exact search).  Its
    # pools at 30 s are these instances, at its PTAS settings, and every run
    # solves two `ptas_pierce` instances of its pool, each of which
    # discards.  The `ptas_pack` instances' dominance kernels are
    # independent: each is closed exactly, nothing discarded, and answers
    # the kernel's size.
    cfg = PtasConfig(epsilon=0.5, c_stop=2.0)
    for seed in seeds:
        inst = gen_instance("random", 2, shape=shape, n=n, seed=seed)
        sol = solve(inst, cfg)
        if solve is ptas_pierce:
            assert sol.discarded > 0, seed
            continue
        ctx = IntersectionContext(inst.objects)
        assert sol.discarded == 0 and sol.optimal, seed
        assert sol.value == ctx.dominance_kernel(ctx.full_mask()).bit_count(), seed


def test_pierce_leaf_abort_falls_back_to_greedy():
    # The leaves of this run hit the node cap; each falls back to the greedy
    # cover of its own part, restricted from the call's one table.
    inst = gen_instance("random", 2, n=80, seed=1)
    cfg = PtasConfig(epsilon=0.5, c_stop=1.0, solve=SolveConfig(base_threshold=1, node_cap=3))
    sol = ptas_pierce(inst, cfg)
    assert sol.aborted and not sol.optimal
    assert sol.discarded > 0
    assert len(sol.witness) == sol.value
    for o in inst.objects:
        assert any(contains_point(o, p) for p in sol.witness)
