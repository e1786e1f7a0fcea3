import itertools
import json
import random
import sys
from pathlib import Path

import pytest

from fatsep import candidates, solver
from fatsep.calibration import node_law_bound
from fatsep.geometry import AxisBox, Ball, center, contains_point, intersects, size
from fatsep.instances import Instance, gen_instance
from fatsep.measure import IntersectionContext, greedy_pack, greedy_pierce, mask_to_ids
from fatsep.oracle import brute_pack, brute_pierce
from fatsep.ptas import PtasConfig, ptas_pack, ptas_pierce
from fatsep.separator import separate
from fatsep.solver import (
    SolveConfig,
    _Budget,
    _PackSearch,
    _PierceSearch,
    _Search,
    solve_pack,
    solve_pierce,
)
from conftest import equal_size_balls, random_objects, shifted
from milp_reference import milp_pack, milp_pierce


def inst_of(objs, d=2):
    return Instance(dim=d, objects=tuple(objs))


def count_calls(monkeypatch, owner, name):
    """Wrap method or module function `owner.name` so each call appends its
    arguments after the first (a method's `self`) to the returned list."""
    calls = []
    original = getattr(owner, name)

    def wrapper(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

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


def test_pack_cluster_recursion_matches_oracle(monkeypatch):
    # Far clusters make the root a component node, whose batches and parts
    # close as base cases: no cluster here is a connected part large enough
    # to separate (test_dense_families_match_oracle_on_every_path covers
    # separated nodes).
    calls = count_calls(monkeypatch, _Search, "_components")
    cfg = SolveConfig(base_threshold=3)
    for seed in range(10):
        calls.clear()
        inst = gen_instance("cluster", 2, clusters=4, cluster_size=5, seed=seed)
        sol = solve_pack(inst, cfg)
        assert sol.value == brute_pack(inst).value
        assert sol.nodes > 1 and calls, seed


# --- solve_pierce ---------------------------------------------------------


def test_pierce_disjoint():
    sol = solve_pierce(inst_of([Ball((10 * i, 0), 1) for i in range(4)]))
    assert sol.value == 4


def test_pierce_concentric():
    sol = solve_pierce(inst_of([Ball((0, 0), float(r)) for r in range(1, 6)]))
    assert sol.value == 1


@pytest.mark.parametrize("shape,d", [("ball", 2), ("box", 2), ("box", 3)])
def test_pierce_matches_oracle(shape, d, monkeypatch):
    # Dense families, so that connected masks reach the separator.
    separated = count_calls(monkeypatch, _PierceSearch, "_separated")
    cfg = SolveConfig(base_threshold=3)
    for seed in range(20):
        inst = gen_instance("random", d, shape=shape, n=12, seed=seed, density=8)
        sol = solve_pierce(inst, cfg)
        assert sol.optimal
        assert sol.value == brute_pierce(inst).value
        assert len(sol.witness) == sol.value
        for o in inst.objects:
            assert any(contains_point(o, p) for p in sol.witness)
    assert separated


def test_pierce_cluster_recursion_matches_oracle(monkeypatch):
    # Far clusters are components.  Seed 2648 has a connected cluster whose
    # greedy estimate exceeds the threshold; its base box is the ladder's
    # floor rung (tau = 1), so the split pivots.  Seed 5528's cluster reaches
    # a separated node.
    separated = count_calls(monkeypatch, _PierceSearch, "_separated")
    cfg = SolveConfig(base_threshold=2)
    for seed in (*range(6), 2648, 5528):
        inst = gen_instance("cluster", 2, shape="box", clusters=2, cluster_size=7, seed=seed)
        sol = solve_pierce(inst, cfg)
        assert sol.value == brute_pierce(inst).value
    assert separated


def test_pierce_answers_pinned_on_the_seed_1_benchmark_mix():
    # The 22 instances of the pierce-exact mix of `perfbench/run.py --seed 1`
    # (30 s), with the value, witness, nodes and depth of each solve as
    # recorded at commit f8db317, before piercing ran on the table's
    # incidence index: how rows are found may change, which rows may not.
    pinned = json.loads(Path(__file__).with_name("pierce_exact_seed1.json").read_text())
    assert len(pinned) == 22
    for rec in pinned:
        _, shape, d, n, seed = rec["label"].split("-")
        inst = gen_instance("random", int(d[1:]), shape=shape, n=int(n[1:]), seed=int(seed[1:]))
        sol = solve_pierce(inst)
        got = (sol.value, [list(p) for p in sol.witness], sol.nodes, sol.depth)
        assert got == (rec["value"], rec["witness"], rec["nodes"], rec["depth"]), rec["label"]


def test_pack_answers_pinned_on_the_seed_1_benchmark_mix():
    # The 260 instances of the pack-exact mix of `perfbench/run.py --seed 1`
    # (30 s), with the value, witness, nodes and depth of each solve as
    # recorded at commit b4cff9c, before contexts were built from one flat
    # row array and batches closed on the components already found.
    pinned = json.loads(Path(__file__).with_name("pack_exact_seed1.json").read_text())
    assert len(pinned) == 260
    for rec in pinned:
        _, shape, d, n, seed = rec["label"].split("-")
        inst = gen_instance("random", int(d[1:]), shape=shape, n=int(n[1:]), seed=int(seed[1:]))
        sol = solve_pack(inst)
        got = (sol.value, sol.witness, sol.nodes, sol.depth)
        assert got == (rec["value"], rec["witness"], rec["nodes"], rec["depth"]), rec["label"]


def test_pack_without_splits_leaves_the_layout_unbuilt(monkeypatch):
    # A packing solve reads its context's layout only to separate: one
    # that closes at once, or through component batches, leaves it unbuilt,
    # and one that splits builds it.
    contexts = []

    class Recorded(IntersectionContext):
        def __init__(self, objs):
            super().__init__(objs)
            contexts.append(self)

    monkeypatch.setattr(solver, "IntersectionContext", Recorded)
    splits = count_calls(monkeypatch, _PackSearch, "split")
    layout = {"center", "low", "high"}
    nodes = []
    for shape, d, n in (("ball", 2, 26), ("box", 3, 18)):
        nodes.append(solve_pack(gen_instance("random", d, shape=shape, n=n, seed=1)).nodes)
        assert not splits and not layout & vars(contexts[-1].arrays).keys()
    assert min(nodes) == 1 < max(nodes)
    solve_pack(gen_instance("random", 2, n=24, seed=0, density=8), SolveConfig(base_threshold=2))
    assert splits and layout & vars(contexts[-1].arrays).keys()


def test_pierce_base_case_covers_with_kept_rows():
    # A base case's boundary search branches only on the rows its mask's
    # restriction keeps: on dense boxes, where restrictions drop repeated
    # and dominated rows, every witness row of a submask is a kept row.
    rng = random.Random(0)
    for seed in (1, 2):
        inst = gen_instance("random", 2, shape="box", n=40, seed=seed, density=8)
        ctx = IntersectionContext(inst.objects)
        search = _PierceSearch(ctx, SolveConfig(base_threshold=100))
        for _ in range(5):
            mask = rng.getrandbits(ctx.n)
            witness, _, nodes, _ = search.run(mask)
            kept = search.table.restrict(mask)
            assert nodes == 1 and all(kept >> r & 1 for r in witness)
            pierced = 0
            for r in witness:
                pierced |= search.table.cov[r]
            assert pierced & mask == mask


@pytest.mark.parametrize(
    "search, solve, approx, shape, density",
    [(_PackSearch, solve_pack, ptas_pack, "ball", 8), (_PierceSearch, solve_pierce, ptas_pierce, "box", 2)],
)
def test_handed_estimates_answer_as_computed_ones(monkeypatch, search, solve, approx, shape, density):
    # A component node hands each batch and each larger (connected) part its
    # greedy estimate, and the PTAS hands each leaf its own.  Computing every
    # estimate again instead gives the same witness, depth and node count, on
    # dense families that reach component, separated and pivot nodes.
    expanded = count_calls(monkeypatch, _Search, "_expand")
    runs = count_calls(monkeypatch, _Search, "run")
    pivots = count_calls(monkeypatch, search, "_pivot")
    separated = count_calls(monkeypatch, search, "_separated")
    components = count_calls(monkeypatch, _Search, "_components")
    base = 2
    insts = [gen_instance("random", 2, shape=shape, n=16, seed=seed, density=density) for seed in range(6)]
    ptas_cfg = PtasConfig(epsilon=0.5, c_stop=1.0, solve=SolveConfig(base_threshold=base))
    ptas_inst = gen_instance("random", 2, shape=shape, n=60, seed=1, density=density)

    def answers():
        got = []
        for balance_cap in (0.8, 1e-9):
            cfg = SolveConfig(base_threshold=base, balance_cap=balance_cap)
            got += [solve(inst, cfg) for inst in insts]
        got.append(approx(ptas_inst, ptas_cfg))
        return [(sol.witness, sol.depth, sol.nodes) for sol in got]

    handed = answers()
    assert components and pivots and any(args[0] | args[1] for args in separated)
    assert any(parts is not None for _, g, parts in expanded)  # batches
    assert any(parts is None and g is not None and g > base for _, g, parts in expanded)  # connected parts
    assert any(len(args) == 2 and args[1] is not None for args in runs)  # PTAS leaves
    handing_solve, handing_run = _Search.solve, _Search.run
    monkeypatch.setattr(_Search, "solve", lambda self, mask, estimate=None, parts=None: handing_solve(self, mask, None, parts))
    monkeypatch.setattr(_Search, "run", lambda self, mask, estimate=None: handing_run(self, mask))
    assert answers() == handed


def test_pierce_builds_one_candidate_table(monkeypatch):
    # Separated nodes, pivots and base cases all search masks over the one
    # table built for the solve.
    inst = gen_instance("random", 2, shape="box", n=14, seed=0, density=4)
    want = brute_pierce(inst).value
    separated = count_calls(monkeypatch, _PierceSearch, "_separated")
    pivots = count_calls(monkeypatch, _PierceSearch, "_pivot")
    sweeps = count_calls(monkeypatch, candidates, "_box_sweep")
    points = count_calls(monkeypatch, candidates, "candidate_pierce_points")
    masks = count_calls(monkeypatch, candidates, "coverage_masks")
    sol = solve_pierce(inst, SolveConfig(base_threshold=2))
    assert sol.value == want
    assert separated and pivots
    # One sweep gives the box table its points and masks; neither public
    # entry point runs, and a box family never gets a coverage pass.
    assert len(sweeps) == 1
    assert not points and not masks


def test_pierce_at_least_pack():
    for seed in range(20):
        inst = inst_of(random_objects(seed, 12))
        assert solve_pierce(inst).value >= solve_pack(inst).value


# --- boundary enumeration -------------------------------------------------


def boundary_visits(ctx, boundary, monkeypatch):
    """The independent subsets of `boundary` that `_PackSearch._separated`
    visits, in visit order, read from its `solve` calls.  Each object i of
    the context gets a private neighbour, bit n + i, which meets it alone;
    with these bits as the inside, a visit of C asks for the inside minus
    N(C), which names C."""
    n = ctx.n
    probes = ((1 << n) - 1) << n
    monkeypatch.setattr(ctx, "nbr", [m | 1 << (n + i) for i, m in enumerate(ctx.nbr)])
    search = _PackSearch(ctx, SolveConfig())
    asked = []
    monkeypatch.setattr(search, "solve", lambda mask: asked.append(mask) or ([], 0))
    search._separated(probes, 0, boundary)
    # Each visit asks for the inside, then for the empty outside.
    assert asked[1::2] == [0] * (len(asked) // 2)
    return [tuple(i for i in range(n) if not mask >> (n + i) & 1) for mask in asked[::2]]


def independent_subsets(ctx, mask):
    """Every independent subset of `mask`, by filtering its power set."""
    ids = mask_to_ids(mask)
    subsets = []
    for k in range(len(ids) + 1):
        for c in itertools.combinations(ids, k):
            if all(not intersects(ctx.objs[a], ctx.objs[b]) for a, b in itertools.combinations(c, 2)):
                subsets.append(c)
    return subsets


def test_boundary_dfs_empty_boundary(monkeypatch):
    assert boundary_visits(IntersectionContext([]), 0, monkeypatch) == [()]


def test_boundary_dfs_two_intersecting(monkeypatch):
    ctx = IntersectionContext([Ball((0, 0), 1), Ball((0.5, 0), 1)])
    assert boundary_visits(ctx, 3, monkeypatch) == [(), (0,), (1,)]


def random_boundaries():
    """(context, boundary mask) of 6-object families: the full mask, then a
    random proper sub-mask of it."""
    rng = random.Random(0)
    for seed in range(10):
        ctx = IntersectionContext(random_objects(seed, 6))
        for mask in (63, rng.randrange(1, 63)):
            yield ctx, mask


def test_boundary_dfs_visits_each_independent_subset_once(monkeypatch):
    for ctx, mask in random_boundaries():
        with monkeypatch.context() as m:
            got = boundary_visits(ctx, mask, m)
        assert got[0] == ()  # the empty set comes first
        assert len(got) == len(set(got))
        assert sorted(got) == sorted(independent_subsets(ctx, mask))


def test_boundary_dfs_answer_is_best_over_subsets():
    # The objects off the boundary alternate between the two sides.
    for ctx, mask in random_boundaries():
        rest = mask_to_ids(63 & ~mask)
        inside = sum(1 << i for i in rest[::2])
        outside = sum(1 << i for i in rest[1::2])
        search = _PackSearch(ctx, SolveConfig(base_threshold=1))
        search.memo, search.budget = {}, _Budget(10**6)
        best, _ = search._separated(inside, outside, mask)

        def side(part, c):
            free = [ctx.objs[i] for i in mask_to_ids(part) if not any(ctx.nbr[j] >> i & 1 for j in c)]
            return brute_pack(inst_of(free)).value

        want = max(len(c) + side(inside, c) + side(outside, c) for c in independent_subsets(ctx, mask))
        assert len(best) == want
        # The sides may meet each other here, but neither meets the
        # boundary objects chosen, and each side's answer is a packing.
        for part in (mask | inside, mask | outside):
            objs = [ctx.objs[i] for i in best if part >> i & 1]
            assert all(not intersects(a, b) for a, b in itertools.combinations(objs, 2))


# --- pivot fallback ---------------------------------------------------------


def test_forced_fallback_same_value(monkeypatch):
    # balance_cap near zero declares every separator unbalanced, forcing the
    # pivot path throughout; values must still match the oracle and the
    # unforced solve.  The families are dense enough to have connected
    # masks above the threshold.
    pack_pivots = count_calls(monkeypatch, _PackSearch, "_pivot")
    pierce_pivots = count_calls(monkeypatch, _PierceSearch, "_pivot")
    forced = SolveConfig(base_threshold=4, balance_cap=1e-9)
    normal = SolveConfig(base_threshold=4)
    for seed in range(10):
        inst = inst_of(random_objects(seed, 14, span=5.0))
        value = solve_pack(inst, forced).value
        assert value == brute_pack(inst).value
        assert value == solve_pack(inst, normal).value
    forced = SolveConfig(base_threshold=3, balance_cap=1e-9)
    normal = SolveConfig(base_threshold=3)
    for seed in range(6):
        inst = gen_instance("random", 2, shape="box", n=10, seed=seed, density=8)
        value = solve_pierce(inst, forced).value
        assert value == brute_pierce(inst).value
        assert value == solve_pierce(inst, normal).value
    assert pack_pivots and pierce_pivots


# --- memo -------------------------------------------------------------------


@pytest.mark.parametrize(
    "solve,brute,search,shape,n,base",
    [
        (solve_pack, brute_pack, _PackSearch, "ball", 16, 3),
        (solve_pierce, brute_pierce, _PierceSearch, "box", 12, 2),
    ],
)
def test_no_mask_expanded_twice(monkeypatch, solve, brute, search, shape, n, base):
    # Base cases, component nodes, separated nodes and pivots (forced by
    # balance_cap=1e-9) each expand a mask at most once per solve; repeats
    # come from the memo.  A pivot is a split whose boundary is one object
    # and whose outside is empty, so its mask reaches `_separated` too; so
    # does a piercing base case, its whole mask the boundary with nothing
    # inside or outside.  Sparse packing families never reach a separated
    # node, so packing runs on dense ones.
    density = 8 if search is _PackSearch else 1
    requests = count_calls(monkeypatch, _Search, "solve")
    expanded = count_calls(monkeypatch, search, "_expand")
    components = count_calls(monkeypatch, _Search, "_components")
    pivots = count_calls(monkeypatch, search, "_pivot")
    separated = count_calls(monkeypatch, search, "_separated")
    reached = {"base": 0, "components": 0, "pivot": 0, "separated": 0}
    hits = 0
    for balance_cap in (0.8, 1e-9):
        cfg = SolveConfig(base_threshold=base, balance_cap=balance_cap)
        for seed in range(8):
            inst = gen_instance("random", 2, shape=shape, n=n, seed=seed, density=density)
            for calls in (requests, expanded, components, pivots, separated):
                calls.clear()
            sol = solve(inst, cfg)
            assert sol.optimal and sol.value == brute(inst).value
            masks = [args[0] for args in expanded]
            assert len(set(masks)) == len(masks) == sol.nodes
            component_masks = [sum(args[0]) for args in components]
            pivot_masks = [args[0] for args in pivots]
            base_masks = [args[2] for args in separated if not args[0] | args[1]]
            separated_masks = [args[0] | args[1] | args[2] for args in separated if args[0] | args[1]]
            assert len(set(pivot_masks)) == len(pivot_masks)
            assert len(set(separated_masks)) == len(separated_masks)
            assert len(set(component_masks)) == len(component_masks)
            assert set(pivot_masks + separated_masks + component_masks) <= set(masks)
            one_object_splits = {
                inside | boundary
                for inside, outside, boundary in (args[:3] for args in separated)
                if not outside and boundary.bit_count() == 1 and not inside & boundary
            }
            assert set(pivot_masks) <= one_object_splits
            reached["components"] += len(component_masks)
            reached["pivot"] += len(pivot_masks)
            reached["separated"] += len(separated_masks)
            plain = set(masks) - set(pivot_masks + separated_masks + component_masks)
            if search is _PierceSearch:
                assert sorted(base_masks) == sorted(plain)
            reached["base"] += len(plain)
            hits += len(requests) - len(masks)
    assert all(reached.values()), reached
    assert hits > 0


# --- component nodes ----------------------------------------------------------


@pytest.mark.parametrize(
    "solve, shape, d, n",
    [
        (solve_pack, "ball", 2, 20),
        (solve_pack, "box", 3, 20),
        (solve_pierce, "box", 2, 12),
        (solve_pierce, "ball", 2, 12),
    ],
)
def test_two_far_copies_solve_to_twice_the_value(monkeypatch, solve, shape, d, n):
    # Two copies of a dense family, far apart, are two components at least:
    # the joined value is twice one copy's, and the separator only ever
    # sees objects of one copy.
    calls = count_calls(monkeypatch, _Search, "_components")
    families = []
    original = solver.separate

    def recording_separate(objs, cfg):
        families.append(objs)
        return original(objs, cfg)

    monkeypatch.setattr(solver, "separate", recording_separate)
    cfg = SolveConfig(base_threshold=2)
    for seed in range(3):
        one = gen_instance("random", d, shape=shape, n=n, seed=seed, density=8)
        alone = solve(one, cfg)
        families.clear()
        calls.clear()
        joined = inst_of(one.objects + tuple(shifted(o, 10_000.0) for o in one.objects), d)
        sol = solve(joined, cfg)
        assert sol.optimal and sol.value == 2 * alone.value
        assert calls and families
        for objs in families:
            assert len({center(o)[0] > 5_000 for o in objs}) == 1
        if solve is solve_pack:
            chosen = [joined.objects[i] for i in sol.witness]
            assert not any(intersects(a, b) for i, a in enumerate(chosen) for b in chosen[i + 1 :])
        else:
            assert all(any(contains_point(o, p) for p in sol.witness) for o in joined.objects)


def test_grid_components_stay_within_node_law():
    # Pairwise disjoint grids are all components; grouping them by greedy
    # estimate keeps criterion 5's node bound.
    for k in (2, 3, 4, 5):
        inst = gen_instance("grid", 2, k=k, seed=k)
        for solve in (solve_pack, solve_pierce):
            sol = solve(inst)
            assert sol.optimal and sol.value == k * k
            assert sol.nodes <= node_law_bound(inst.n, k * k, 2)


@pytest.mark.parametrize("shape, d", [("ball", 2), ("box", 2), ("box", 3)])
def test_greedy_estimates_add_up_over_components(shape, d):
    # The component node closes a batch of components as a base case on the
    # sum of their estimates; both estimates must equal that sum.
    rng = random.Random(d)
    for seed in range(10):
        inst = gen_instance("random", d, shape=shape, n=24, seed=seed, density=2)
        ctx = IntersectionContext(inst.objects)
        search = _PierceSearch(ctx, SolveConfig())
        for _ in range(5):
            mask = rng.getrandbits(ctx.n)
            parts = ctx.components(mask)
            assert sum(parts) == mask
            assert sorted(parts, key=lambda part: part & -part) == parts
            # No edge leaves a part.
            assert all(not (ctx.nbr[i] & mask & ~part) for part in parts for i in mask_to_ids(part))
            for estimate in (lambda m: ctx.greedy_pack_mask(m)[0], lambda m: len(search.greedy(m))):
                assert estimate(mask) == sum(estimate(part) for part in parts)
            # A part's piercing estimate through the view of the whole mask,
            # the node's, is its own; the full mask's view is every row.
            for whole in (mask, ctx.full_mask()):
                view = search.view(whole)
                for part in ctx.components(whole):
                    assert search.estimate(part, view) == search.estimate(part)


# --- dense differential -------------------------------------------------------


@pytest.mark.parametrize(
    "solve, brute, search, n",
    [(solve_pack, brute_pack, _PackSearch, 24), (solve_pierce, brute_pierce, _PierceSearch, 14)],
)
def test_dense_families_match_oracle_on_every_path(monkeypatch, solve, brute, search, n):
    # At density 8 the families are connected, so separated nodes, pivots and
    # component nodes (sides left disconnected by a boundary choice) all run.
    names = ("_separated", "_pivot", "_components")
    paths = {name: count_calls(monkeypatch, search, name) for name in names}
    for shape, d in (("ball", 2), ("box", 2), ("box", 3)):
        for seed in range(10):
            inst = gen_instance("random", d, shape=shape, n=n, seed=seed, density=8)
            want = brute(inst).value
            for base in (1, 2, 3):
                sol = solve(inst, SolveConfig(base_threshold=base))
                assert sol.optimal and sol.value == want, (inst.label, base)
    assert all(paths.values()), {name: len(calls) for name, calls in paths.items()}


@pytest.mark.parametrize(
    "solve, milp, n, base",
    [(solve_pack, milp_pack, 40, 4), (solve_pierce, milp_pierce, 24, 3)],
)
def test_dense_families_above_the_oracle_guards_match_milp(monkeypatch, solve, milp, n, base):
    # Families too large for the brute-force oracles, checked against the
    # MILP reference, through separated nodes and (with a balance cap no
    # split meets) pivots.
    search = _PackSearch if solve is solve_pack else _PierceSearch
    paths = {name: count_calls(monkeypatch, search, name) for name in ("_separated", "_pivot")}
    for shape in ("ball", "box"):
        for seed in range(3):
            inst = gen_instance("random", 2, shape=shape, n=n, seed=seed, density=8)
            want = milp(inst.objects)
            for balance_cap in (0.8, 1e-9):
                sol = solve(inst, SolveConfig(base_threshold=base, balance_cap=balance_cap))
                assert sol.optimal and sol.value == want, (inst.label, balance_cap)
    assert all(paths.values()), {name: len(calls) for name, calls in paths.items()}


# --- determinism / node cap -------------------------------------------------


@pytest.mark.parametrize(
    "solve, shape, d",
    [(solve_pack, "ball", 2), (solve_pack, "box", 3), (solve_pierce, "box", 2), (solve_pierce, "ball", 2)],
)
def test_solve_order_invariance(monkeypatch, solve, shape, d):
    # The same optimum, with a feasible witness, after the objects are
    # shuffled: through base cases, separated nodes (base_threshold 1 and 3)
    # and pivots (a balance cap no split meets).
    search = _PackSearch if solve is solve_pack else _PierceSearch
    paths = {name: count_calls(monkeypatch, search, name) for name in ("_separated", "_pivot")}
    for seed in range(6):
        objs = list(gen_instance("random", d, shape=shape, n=14, seed=seed).objects)
        shuffled = list(objs)
        random.Random(seed).shuffle(shuffled)
        for base in (1, 3):
            for balance_cap in (0.8, 1e-9):
                cfg = SolveConfig(base_threshold=base, balance_cap=balance_cap)
                values = set()
                for family in (objs, shuffled):
                    sol = solve(inst_of(family, d), cfg)
                    assert sol.optimal and len(sol.witness) == sol.value
                    if solve is solve_pack:
                        chosen = [family[i] for i in sol.witness]
                        assert not any(intersects(a, b) for i, a in enumerate(chosen) for b in chosen[i + 1 :])
                    else:
                        assert all(any(contains_point(o, p) for p in sol.witness) for o in family)
                    values.add(sol.value)
                assert len(values) == 1, (seed, base, balance_cap)
    assert all(paths.values()), {name: len(calls) for name, calls in paths.items()}


def permuted(objs, seed):
    """(perm, family): `objs` shuffled, position k of the family holding
    `objs[perm[k]]`."""
    perm = list(range(len(objs)))
    random.Random(seed).shuffle(perm)
    return perm, [objs[k] for k in perm]


def answer(sol, perm=None):
    """What a solution says, its packing witness mapped through `perm` back
    to the positions of the unshuffled family."""
    witness = sol.witness
    if sol.problem == "pack" and perm is not None:
        witness = sorted(perm[k] for k in witness)
    return sol.value, sol.nodes, sol.depth, sol.discarded, witness


def test_answers_do_not_depend_on_object_order(monkeypatch):
    # Objects of distinct sizes have one size-rank numbering however they
    # are given, and the base-box search, the shell sweep and every walk of
    # the solve read that numbering alone, so a shuffle changes no answer:
    # the PTAS's, a dense exact solve's through its separated nodes, or a
    # separator's.  (Objects of equal size still rank by given position.)
    separated = {
        search: count_calls(monkeypatch, search, "_separated") for search in (_PackSearch, _PierceSearch)
    }
    ptas_cfg = PtasConfig(epsilon=0.5, c_stop=2.0)
    cases = [
        (lambda inst: ptas_pack(inst, ptas_cfg), "ball", 200, 1.0, (1, 2)),
        (lambda inst: ptas_pierce(inst, ptas_cfg), "box", 90, 1.0, (1, 2)),
        (solve_pack, "box", 60, 8.0, (1,)),
        (solve_pierce, "box", 50, 8.0, (0, 6)),
    ]
    for solve, shape, n, density, seeds in cases:
        for seed in seeds:
            objs = list(gen_instance("random", 2, shape=shape, n=n, seed=seed, density=density).objects)
            assert len({size(o) for o in objs}) == n
            perm, family = permuted(objs, seed)
            want = answer(solve(inst_of(objs)))
            assert answer(solve(inst_of(family)), perm) == want, (shape, n, seed)
    assert all(separated.values())
    for shape, n, density, seed in (("box", 60, 8.0, 0), ("ball", 200, 1.0, 1), ("box", 90, 1.0, 1)):
        objs = list(gen_instance("random", 2, shape=shape, n=n, seed=seed, density=density).objects)
        perm, family = permuted(objs, seed)
        want, got = separate(objs), separate(family)
        assert (got.base_box, got.box) == (want.base_box, want.box)
        assert sorted(perm[k] for k in got.boundary_ids) == want.boundary_ids


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


@pytest.mark.parametrize(
    "solve,greedy,inst",
    [
        (
            solve_pack,
            lambda inst: greedy_pack(inst.objects),
            gen_instance("random", 2, shape="ball", n=24, seed=3, density=8),
        ),
        (
            solve_pierce,
            lambda inst: greedy_pierce(list(inst.objects)),
            gen_instance("random", 2, shape="box", n=14, seed=1),
        ),
    ],
)
def test_node_cap_counts_work_not_expansions(monkeypatch, solve, greedy, inst):
    # A cap above the number of expanded subproblems but below the ticks of
    # an uncapped solve must still abort: memo hits, and the piercing
    # boundary search's steps, count against the cap.
    ticks = count_calls(monkeypatch, _Budget, "tick")
    cfg = SolveConfig(base_threshold=2)
    full = solve(inst, cfg)
    assert full.optimal
    cap = len(ticks) - 1
    assert full.nodes < cap
    sol = solve(inst, SolveConfig(base_threshold=2, node_cap=cap))
    assert sol.aborted and not sol.optimal
    want = greedy(inst)
    assert (sol.value, sol.witness) == (want.value, want.witness)


def test_pierce_node_cap_counts_boundary_steps(monkeypatch):
    # The boundary search's own steps tick the budget, beyond its solve
    # calls; at a base case they are the closer's branches.
    inst = gen_instance("random", 2, shape="box", n=14, seed=1)
    callers = []
    original = _Budget.tick

    def tick(self):
        callers.append(sys._getframe(1).f_code.co_name)
        original(self)

    monkeypatch.setattr(_Budget, "tick", tick)
    requests = count_calls(monkeypatch, _Search, "solve")
    sol = solve_pierce(inst, SolveConfig(base_threshold=2))
    assert sol.optimal and len(callers) > len(requests)
    assert "dfs" in callers


@pytest.mark.parametrize(
    "solve, greedy, inst, base",
    [
        (solve_pack, greedy_pack, equal_size_balls(60, 1), 12),
        (solve_pierce, greedy_pierce, gen_instance("random", 2, shape="box", n=60, seed=1, density=8), 100),
    ],
)
def test_node_cap_bounds_closer_branches(solve, greedy, inst, base):
    # The greedy estimate is under base_threshold, so one closer call closes
    # the root (piercing: the boundary search with the whole mask as the
    # boundary), and uncapped it branches 3,678,559 times (packing, Pack 14)
    # or 312,067 times (piercing, Pierce 20).
    # Each branch ticks the budget: the solve aborts soon after the cap and
    # answers with the greedy witness.
    want = greedy(list(inst.objects))
    assert want.value <= base
    sol = solve(inst, SolveConfig(base_threshold=base, node_cap=1000))
    assert sol.aborted and not sol.optimal
    assert sol.wall_time < 1.0
    assert (sol.value, sol.witness) == (want.value, want.witness)
    if solve is solve_pack:
        chosen = [inst.objects[i] for i in sol.witness]
        assert not any(intersects(a, b) for i, a in enumerate(chosen) for b in chosen[i + 1 :])
    else:
        assert all(any(contains_point(o, p) for p in sol.witness) for o in inst.objects)
