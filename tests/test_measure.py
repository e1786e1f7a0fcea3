import math
import random
import sys

import numpy as np
import pytest

from fatsep import candidates as cand
from fatsep import measure
from fatsep.geometry import (
    TOL,
    AxisBox,
    Ball,
    DimensionMismatchError,
    ShapeArrays,
    contains_point,
    intersects,
    size,
)
from fatsep.instances import Instance, gen_instance
from fatsep.measure import (
    OVERFLOW,
    IntersectionContext,
    PierceTable,
    exact_small_pack,
    exact_small_pierce,
    greedy_pack,
    greedy_pierce,
    mask_to_ids,
    prune_dominated,
)
from fatsep.oracle import brute_pack, brute_pierce
from fatsep.solver import SolveConfig, _PierceSearch, solve_pierce
from conftest import given_mask, given_nbr, huge_ball_family, overflowing_offsets, random_objects, shifted


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
        got = exact_small_pack(objs, 14)
        assert got.value == brute_pack(inst).value == len(got.witness)
        # The witness holds given positions.
        wit = [objs[i] for i in got.witness]
        assert not any(intersects(a, b) for i, a in enumerate(wit) for b in wit[i + 1 :])
        # A random proper sub-mask, closed on the full instance's context.
        mask = rng.randrange(1, (1 << 14) - 1)
        ids = [i for i in range(14) if mask >> i & 1]
        ctx = IntersectionContext(objs)
        value, chosen = ctx.exact_pack_mask(mask)
        sub = Instance(dim=2, objects=tuple(ctx.objs[i] for i in ids))
        assert value == brute_pack(sub).value
        assert chosen & ~mask == 0 and chosen.bit_count() == value
        wit = [ctx.objs[i] for i in range(14) if chosen >> i & 1]
        for i, a in enumerate(wit):
            for b in wit[i + 1 :]:
                assert not intersects(a, b)


def closer_steps(ctx, mask):
    """`ctx.exact_pack_mask(mask)` and the number of calls of its inner
    recursion `rec`, counted with a profile hook."""
    steps = 0

    def count(frame, event, arg):
        nonlocal steps
        code = frame.f_code
        if event == "call" and code.co_name == "rec" and code.co_filename == measure.__file__:
            steps += 1

    sys.setprofile(count)
    try:
        value, chosen = ctx.exact_pack_mask(mask)
    finally:
        sys.setprofile(None)
    return value, chosen, steps


@pytest.mark.parametrize("shape", ["ball", "box"])
def test_exact_pack_mask_closes_each_component_alone(shape):
    # k far copies of one connected family are k components.  Closed one by
    # one, the closer's value is k times one copy's, its witness the union
    # of the copies' witnesses and its recursion k times one copy's; a joint
    # search over the copies walks the product of their search trees.
    one = list(gen_instance("random", 2, shape=shape, n=10, seed=1, density=8).objects)
    m = len(one)
    ctx = IntersectionContext(one)
    assert ctx.components(ctx.full_mask()) == [ctx.full_mask()]
    value, chosen, steps = closer_steps(ctx, ctx.full_mask())
    assert value > 1 and steps > value + 1
    for k in range(1, 5):
        joined = [shifted(o, 1000 * j) for j in range(k) for o in one]
        kctx = IntersectionContext(joined)
        # The shifts leave each copy's intersection graph as it was (read
        # at the given positions: copy j holds positions m*j to m*j + m - 1).
        assert given_nbr(kctx) == [nbr << (m * j) for j in range(k) for nbr in given_nbr(ctx)]
        kvalue, kchosen, ksteps = closer_steps(kctx, kctx.full_mask())
        want = sum(given_mask(ctx, chosen) << (m * j) for j in range(k))
        assert (kvalue, given_mask(kctx, kchosen), ksteps) == (k * value, want, k * steps), k


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


def prune_reference(points, cov):
    """Each nonzero coverage that no other coverage strictly contains, with
    its smallest point, sorted by point."""
    first = {}
    for p, c in zip(points, cov):
        if c and (c not in first or p < first[c]):
            first[c] = p
    kept = sorted((p, c) for c, p in first.items() if not any(c != q and c & ~q == 0 for q in first))
    return [p for p, _ in kept], [c for _, c in kept]


def test_prune_dominated_matches_reference(monkeypatch):
    rng = random.Random(0)
    for k in range(2000):
        m = rng.randint(0, 30)
        points = rng.sample([(x, y) for x in range(8) for y in range(8)], m)
        # Narrow masks repeat and nest often; 65-200 bits span several words.
        bits = rng.randint(1, 8) if k % 4 else rng.randint(65, 200)
        cov = [rng.getrandbits(bits) & rng.getrandbits(bits) for _ in range(m)]
        assert prune_dominated(points, cov) == prune_reference(points, cov)
    objs = list(gen_instance("random", 2, shape="box", n=30, seed=1).objects)
    points = cand.candidate_pierce_points(objs)
    cov = cand.coverage_masks(objs, points)
    assert prune_dominated(points, cov) == prune_reference(points, cov)
    # Every `restrict(mask)` three exact solves of box d=2 n=45 make (at
    # ρ=4 and ρ=8 these repeat masked coverages too) prunes as the
    # reference does.
    inputs = []
    restrict = PierceTable.restrict

    def recorded(table, mask):
        inputs.append((table, mask))
        return restrict(table, mask)

    monkeypatch.setattr(PierceTable, "restrict", recorded)
    for density in (1, 4, 8):
        solve_pierce(gen_instance("random", 2, shape="box", n=45, seed=9, density=density))
    duplicated = 0
    for table, mask in inputs:
        cov = [c & mask for c in table.cov]
        rows = mask_to_ids(restrict(table, mask))
        kept = [cov[r] for r in rows]
        assert ([table.points[r] for r in rows], kept) == prune_reference(table.points, cov)
        nonzero = [c for c in cov if c]
        duplicated += len(set(nonzero)) < len(nonzero)
    assert len(inputs) > 20 and duplicated > 10


def check_restrict(ctx, table, mask):
    """`table.restrict(mask)` prunes the masked table as the reference does,
    and its greedy cover of `mask` is feasible; returns the restriction's
    kept-row mask, points and coverages."""
    kept = table.restrict(mask)
    rows = mask_to_ids(kept)
    points = [table.points[r] for r in rows]
    cov = [table.cov[r] & mask for r in rows]
    assert (points, cov) == prune_reference(table.points, [c & mask for c in table.cov])
    assert all(c and c & ~mask == 0 for c in cov)
    pierced = 0
    for r in table.greedy(mask, kept):
        assert kept >> r & 1
        pierced |= table.cov[r] & mask
    assert pierced == mask
    return kept, points, cov


@pytest.mark.parametrize("shape,d", [("ball", 2), ("box", 2), ("box", 3)])
def test_pierce_table_restricts_to_every_submask(shape, d):
    # The solver builds one table per solve and searches every subproblem on
    # the table restricted to its mask: that must stay exact and feasible.
    rng = random.Random(d)
    for seed in range(8):
        inst = gen_instance("random", d, shape=shape, n=rng.randint(6, 12), seed=seed)
        ctx = IntersectionContext(inst.objects)
        objs = ctx.objs
        table = PierceTable(ctx)
        # The search's own table equals `table`; its witnesses are table rows.
        search = _PierceSearch(ctx, SolveConfig())
        for mask in [ctx.full_mask()] + [rng.randrange(1, 1 << ctx.n) for _ in range(5)]:
            ids = [i for i in range(ctx.n) if mask >> i & 1]
            kept = check_restrict(ctx, table, mask)[0]
            exact = [table.points[r] for r in search.run(mask)[0]]
            sub = Instance(dim=d, objects=tuple(objs[i] for i in ids))
            assert len(exact) == brute_pierce(sub).value
            greedy = [table.points[r] for r in table.greedy(mask, kept)]
            assert len(greedy) >= len(exact)
            for picked in (exact, greedy):
                for i in ids:
                    assert any(contains_point(objs[i], p) for p in picked)
    # Families of 65-200 objects (disks up to 120), whose masks span two to
    # four words, sparse and dense, restricted to random masks and to each
    # single word.
    for seed, density in ((0, 1), (1, 8)):
        n = rng.randint(65, 200 if shape == "box" else 120)
        inst = gen_instance("random", d, shape=shape, n=n, seed=seed, density=density)
        ctx = IntersectionContext(inst.objects)
        table = PierceTable(ctx)
        words = [((1 << 64) - 1) << 64 * w & ctx.full_mask() for w in range(-(-n // 64))]
        masks = [ctx.full_mask()] + words + [rng.getrandbits(n) | 1 for _ in range(10)]
        for mask in masks:
            check_restrict(ctx, table, mask)


def test_pierce_table_on_zero_and_one_objects():
    one = [AxisBox((0.0, 0.0), (1.0, 2.0))]
    for objs in ([], one, disks_on_a_line([3.0])):
        ctx = IntersectionContext(objs)
        table = PierceTable(ctx)
        assert len(table.points) == len(table.cov) == ctx.n
        assert table.restrict(0) == 0
        rows = mask_to_ids(table.restrict(ctx.full_mask()))
        cov = [table.cov[r] for r in rows]
        assert ([table.points[r] for r in rows], cov) == (table.points, table.cov)
        for cap in (0, 1):
            got = exact_small_pierce(objs, cap)
            if cap < ctx.n:
                assert got is OVERFLOW
            else:
                assert got.value == ctx.n and all(contains_point(o, got.witness[0]) for o in objs)
    assert PierceTable(IntersectionContext(one)).points == [(0.0, 0.0)]


def test_pierce_table_index_is_the_transpose_of_its_coverage():
    # inc[o] holds row r exactly when cov[r] holds object o, for every object
    # of the context, over tables of more than 64 rows and objects too.
    families = [[], [AxisBox((0.0, 0.0), (1.0, 2.0))], disks_on_a_line([3.0])]
    for shape in ("box", "ball"):
        for density in (1, 8):
            families.append(gen_instance("random", 2, shape=shape, n=100, seed=density, density=density).objects)
    rows = []
    for objs in families:
        ctx = IntersectionContext(objs)
        table = PierceTable(ctx)
        assert len(table.inc) == ctx.n
        for o in range(ctx.n):
            assert table.inc[o] == sum(1 << r for r, c in enumerate(table.cov) if c >> o & 1)
        rows.append(len(table.cov))
    assert rows[:3] == [0, 1, 1] and min(rows[3:]) > 64


def full_scan_greedy(ctx, table, mask):
    """The greedy piercing of `mask` that scores every row of
    `table.restrict(mask)` at each pick and takes the first of greatest gain."""
    rows = mask_to_ids(table.restrict(mask))
    picked = []
    unpierced = mask
    while unpierced:
        todo = ctx.nbr[(unpierced & -unpierced).bit_length() - 1] & unpierced
        while todo:
            gains = [(table.cov[r] & todo).bit_count() for r in rows]
            r = rows[max(range(len(rows)), key=gains.__getitem__)]
            picked.append(r)
            unpierced &= ~table.cov[r]
            todo &= ~table.cov[r]
    return picked


def test_index_greedy_equals_a_full_scan():
    rng = random.Random(4)
    for shape, d in (("ball", 2), ("box", 2), ("box", 3)):
        for density in (1, 8):
            ctx = IntersectionContext(gen_instance("random", d, shape=shape, n=40, seed=density, density=density).objects)
            table = PierceTable(ctx)
            for mask in [ctx.full_mask()] + [rng.getrandbits(ctx.n) for _ in range(20)]:
                assert table.greedy(mask, table.restrict(mask)) == full_scan_greedy(ctx, table, mask)


def test_prune_dominated_matches_reference_on_a_dense_table():
    # Boxes d=2 at density 8: 925 unpruned rows, wide and nested coverages.
    ctx = IntersectionContext(gen_instance("random", 2, shape="box", n=150, seed=1, density=8).objects)
    points, cov = cand.candidate_rows(ctx.objs, ctx.arrays)
    assert len(points) == 925
    assert prune_dominated(points, cov) == prune_reference(points, cov)


def pairwise_nbr(objs):
    """Closed-neighbourhood masks from one `intersects` call per pair."""
    nbr = [1 << i for i in range(len(objs))]
    for i in range(len(objs)):
        for j in range(i + 1, len(objs)):
            if intersects(objs[i], objs[j]):
                nbr[i] |= 1 << j
                nbr[j] |= 1 << i
    return nbr


def near_touching_pairs(d):
    """Ball-ball, ball-box and box-box pairs whose gap is 0, +-0.5, +-1 or
    +-2 TOL from touching, along an axis and along the diagonal."""
    pairs = []
    unit = [1.0] + [0.0] * (d - 1)
    diag = [1.0 / math.sqrt(d)] * d
    for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
        for direction in (unit, diag):
            origin = [3.7 * len(pairs)] + [1.3] * (d - 1)
            # Centres exactly r1 + r2 + TOL apart, shifted by k TOL.
            r1, r2 = 0.7, 1.1
            gap = r1 + r2 + TOL + k * TOL
            a = Ball(tuple(origin), r1)
            b = Ball(tuple(x + gap * u for x, u in zip(origin, direction)), r2)
            pairs.append((a, b))
            # Ball centre r + TOL off a box face (or corner), shifted by k TOL.
            box = AxisBox(tuple(origin), tuple(x + 0.9 for x in origin))
            step = r1 + TOL + k * TOL
            c = [
                h + step * u if u else (l + h) / 2
                for l, h, u in zip(box.low, box.high, direction)
            ]
            pairs.append((box, Ball(tuple(c), r1)))
        # Box faces TOL apart, shifted by k TOL, on each axis in turn.
        for axis in range(d):
            origin = [3.7 * len(pairs)] + [1.3] * (d - 1)
            box = AxisBox(tuple(origin), tuple(x + 0.9 for x in origin))
            low = list(origin)
            low[axis] = box.high[axis] + TOL + k * TOL
            pairs.append((box, AxisBox(tuple(low), tuple(x + 0.6 for x in low))))
    return pairs


def filter_bound_pairs(d):
    """Ball pairs whose offset on axis 0 lies 0-2 ulps either side of
    `limit * (1 + 1e-6)`, a bound a relative prefilter of far pairs might
    use, alone or with half the bound on axis 1 as well: all misses, some
    squared exactly, some not."""
    r1, r2 = 0.7, 1.1
    bound = (r1 + r2 + TOL) * (1.0 + 1e-6)
    pairs = []
    for steps in (-2, -1, 0, 1, 2):
        t = bound
        for _ in range(abs(steps)):
            t = math.nextafter(t, math.copysign(math.inf, steps))
        for rest in (0.0, 0.5 * bound):
            y = [10.0 * len(pairs)] * (d - 1)
            a = Ball(tuple([0.0] + y), r1)
            b = Ball((t, y[0] + rest, *y[1:]), r2)
            pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("d", [2, 3])
def test_intersection_context_matches_intersects(d):
    families = []
    for seed in range(4):
        families.append(random_objects(seed, 40, d=d))
        families.append(random_objects(seed, 40, d=d, shape="box"))
        mixed = random_objects(seed, 20, d=d) + random_objects(seed + 50, 20, d=d, shape="box")
        random.Random(seed).shuffle(mixed)
        families.append(mixed)
    # More than 64 objects, so every mask spans several 64-bit words.
    families.append(random_objects(7, 80, d=d) + random_objects(8, 70, d=d, shape="box"))
    pairs = near_touching_pairs(d)
    bound_pairs = filter_bound_pairs(d)
    assert not any(intersects(a, b) for a, b in bound_pairs)
    assert {b.center[0] <= (0.7 + 1.1 + TOL) * (1.0 + 1e-6) for _, b in bound_pairs} == {True, False}
    for group in (pairs, bound_pairs):
        families.append([o for pair in group for o in pair])
        for a, b in group:
            families.append([a, b])
            families.append([b, a])
    for objs in families:
        assert given_nbr(IntersectionContext(objs)) == pairwise_nbr(objs)
    # Each kind of near-touching pair lands on both sides of the predicate.
    outcomes = {}
    for a, b in pairs:
        outcomes.setdefault((type(a), type(b)), set()).add(intersects(a, b))
    assert len(outcomes) == 3
    assert all(seen == {True, False} for seen in outcomes.values())


def test_intersection_context_rounds_like_intersects():
    # Tangent pairs whose squared gap rounds differently under x * x than
    # under Python's `**`: any kernel or predicate that squares with `pow`
    # flips a bit.
    rng = random.Random(3)

    def radii(gap):
        found = []
        while len(found) < 40:
            r = rng.uniform(0.2, 0.5)
            g = gap(r)
            if g * g != g**2:
                found.append(r)
        assert {gap(r) * gap(r) > gap(r) ** 2 for r in found} == {True, False}
        return found

    objs = []
    for k, r in enumerate(radii(lambda r: r + r + TOL)):
        objs.append(Ball((0.0, 10.0 * k), r))
        objs.append(Ball((r + r + TOL, 10.0 * k), r))
    for k, r in enumerate(radii(lambda r: r + TOL)):
        # Balls r + TOL beyond one box's high face and another's low face.
        y = 10.0 * k + 5.0
        objs.append(AxisBox((-1.0, y), (0.0, y + 1.0)))
        objs.append(Ball((r + TOL, y + 0.5), r))
        objs.append(AxisBox((0.0, y + 2.0), (1.0, y + 3.0)))
        objs.append(Ball((-(r + TOL), y + 2.5), r))
    nbr = given_nbr(IntersectionContext(objs))
    assert nbr == pairwise_nbr(objs)
    assert all(nbr[i] & (1 << (i + 1)) for i in range(0, len(objs), 2))
    # Ball pairs offset on two axes within an ulp or so of touching, whose
    # sums of squares compare otherwise under x * x than under `**`.
    gen = np.random.default_rng(3)
    r1, r2 = gen.uniform(0.2, 0.5, (2, 20000))
    limit = r1 + r2 + TOL
    dx = limit * gen.uniform(0.2, 0.8, 20000)
    dy = np.sqrt(limit * limit - dx * dx)
    objs = []
    for _ in range(5):
        mult = dx * dx + dy * dy <= limit * limit
        power = np.float_power(dx, 2.0) + np.float_power(dy, 2.0) <= np.float_power(limit, 2.0)
        for k in np.flatnonzero(mult != power).tolist():
            objs += [Ball((0.0, 0.0), r1[k]), Ball((dx[k], dy[k]), r2[k])]
        dy = np.nextafter(dy, np.inf)
    touching = [intersects(a, b) for a, b in zip(objs[::2], objs[1::2])]
    assert len(touching) >= 10 and set(touching) == {True, False}
    assert given_nbr(IntersectionContext(objs)) == pairwise_nbr(objs)
    # Tangent pairs across a block boundary of the ball kernel: a small ball
    # ranks below `_BALL_ROWS` far fillers of middle size and its tangent
    # partner, a large ball, above them.
    objs = [Ball((100.0 + 10.0 * k, -50.0), 0.55) for k in range(measure._BALL_ROWS)]
    pairs = []
    while len(pairs) < 40:
        r, big = rng.uniform(0.2, 0.5), rng.uniform(0.6, 0.9)
        g = r + big + TOL
        if g * g != g**2:
            pairs.append((r, big))
    assert {(r + big + TOL) ** 2 > (r + big + TOL) * (r + big + TOL) for r, big in pairs} == {True, False}
    for k, (r, big) in enumerate(pairs):
        objs.append(Ball((0.0, 10.0 * k), r))
        objs.append(Ball((r + big + TOL, 10.0 * k), big))
    ctx = IntersectionContext(objs)
    small, large = ctx.by_given[measure._BALL_ROWS :: 2], ctx.by_given[measure._BALL_ROWS + 1 :: 2]
    assert max(small) < measure._BALL_ROWS <= min(large)
    nbr = given_nbr(ctx)
    assert nbr == pairwise_nbr(objs)
    assert all(nbr[i] & (1 << (i + 1)) for i in range(measure._BALL_ROWS, len(objs), 2))
    # Near +-1e160 the offsets round in the subtraction; the kernel must
    # take the same offsets as the exact test.
    far = random.Random(5)
    for x in (1e160, -1e160):
        objs = huge_ball_family(x, far)
        nbr = given_nbr(IntersectionContext(objs))
        assert nbr == pairwise_nbr(objs)
        hits = [bool(nbr[i] >> (i + 1) & 1) for i in range(0, len(objs), 2)]
        assert set(hits) == {True, False}
    # Across +-1e160 every offset squares past the float range, to inf: a
    # pair is apart unless its radii sum (plus TOL) squares to inf as well,
    # when it meets (`inf <= inf`).
    assert not intersects(Ball((1e160, 0.0), 1.0), Ball((-1e160, 0.0), 1.0))
    root = math.sqrt(np.finfo(float).max)
    sizes = [1.0, 1e152, root / 2 * (1 - 1e-9), root / 2 * (1 + 1e-9), 1e155]
    objs = [Ball((x, 3.0 * k), r) for x in (1e160, -1e160) for k, r in enumerate(sizes)]
    with np.errstate(over="ignore"):
        nbr = given_nbr(IntersectionContext(objs))
    assert nbr == pairwise_nbr(objs)
    across = {(i, j) for i in range(5) for j in range(5, 10) if nbr[i] >> j & 1}
    assert (0, 5) not in across and (4, 5) in across and (3, 8) in across and (2, 7) not in across
    # At the top of the float range a squared offset can overflow under
    # x * x and not under `pow`: offsets (dx, dy) with dx * dx + dy * dy
    # half an ulp past the largest float (so it rounds to inf), where `pow`
    # rounds dx squared an ulp lower (so the sum rounds down, to the square
    # of the radii sum).  Squared by multiplication, such a pair is apart.
    limit, offsets = overflowing_offsets()
    objs = []
    for x, y in offsets:
        objs += [Ball((0.0, 0.0), limit / 2.0), Ball((x, y), limit / 2.0)]
        assert not intersects(objs[-2], objs[-1])
    with np.errstate(over="ignore"):
        assert given_nbr(IntersectionContext(objs)) == pairwise_nbr(objs)


def test_intersection_context_numbers_objects_by_size():
    # Bit i is the i-th smallest object, ties in given order; `ids` and
    # `input_ids` lead back to the given positions.
    objs = random_objects(2, 30) + random_objects(2, 10, shape="box")
    objs += [Ball(o.center, o.radius) for o in objs[:5]]
    random.Random(2).shuffle(objs)
    ctx = IntersectionContext(objs)
    assert ctx.objs == [objs[i] for i in ctx.ids]
    assert [(size(o), i) for o, i in zip(ctx.objs, ctx.ids)] == sorted((size(o), i) for i, o in enumerate(objs))
    rng = random.Random(3)
    for mask in [0, ctx.full_mask()] + [rng.getrandbits(ctx.n) for _ in range(5)]:
        assert ctx.input_ids(mask) == sorted(ctx.ids[i] for i in range(ctx.n) if mask >> i & 1)


def test_intersection_context_arrays_are_a_fresh_layout():
    # The context's layout, read from its sorted rows, is the one a fresh
    # `ShapeArrays` of its objects holds, bit for bit (NaN radii included),
    # and its sizes are `size`'s, ascending.
    families = [[], [Ball((0.0, 0.0), 1.0)], [AxisBox((0.0, 0.0, 0.0), (1.0, 1.5, 2.0))]]
    for d in (2, 3):
        for seed in range(3):
            balls, boxes = random_objects(seed, 20, d=d), random_objects(seed, 20, d=d, shape="box")
            mixed = balls + boxes
            random.Random(seed).shuffle(mixed)
            families += [balls, boxes, mixed]
    for objs in families:
        ctx = IntersectionContext(objs)
        fresh = ShapeArrays(ctx.objs)
        for name in ("rows", "ball", "radius", "sizes", "center", "low", "high"):
            got, want = getattr(ctx.arrays, name), getattr(fresh, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
        assert ctx.arrays.sizes.tolist() == sorted(size(o) for o in objs) == [size(o) for o in ctx.objs]


def test_intersection_context_small_and_mixed_dimensions():
    assert IntersectionContext([]).nbr == []
    assert IntersectionContext([Ball((0.0, 0.0, 0.0), 1.0)]).nbr == [1]
    with pytest.raises(DimensionMismatchError):
        IntersectionContext([Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0, 0.0), 1.0)])
    with pytest.raises(DimensionMismatchError):
        IntersectionContext(
            [AxisBox((0.0, 0.0), (1.0, 1.0)), Ball((5.0, 5.0), 1.0), Ball((0.0, 0.0, 0.0), 1.0)]
        )


def kernel_families():
    """Small families for the dominance kernel, as (d, objects): balls and
    boxes in d = 2 and 3 at densities 1 to 8, each as generated, with equal
    sizes, and with four exact duplicates."""
    families = []
    for d in (2, 3):
        for shape in ("ball", "box"):
            for density in (1, 2, 4, 8):
                for seed in range(5):
                    objs = list(gen_instance("random", d, shape=shape, n=10, seed=seed, density=density).objects)
                    if shape == "ball":
                        equal = [Ball(o.center, 1.0) for o in objs]
                    else:
                        mids = [[(l + h) / 2 for l, h in zip(o.low, o.high)] for o in objs]
                        equal = [AxisBox([x - 0.7 for x in m], [x + 0.7 for x in m]) for m in mids]
                    rng = random.Random(seed)
                    doubled = objs + rng.sample(objs, 4)
                    rng.shuffle(doubled)
                    families += [(d, objs), (d, equal), (d, doubled)]
    return families


def test_dominance_kernel_keeps_a_maximum_packing():
    # Dropping u for a neighbour v with N[v] ⊆ N[u] keeps a maximum
    # packing: any packing with u may take v instead.
    families = kernel_families()
    assert len(families) >= 200
    shrunk = 0
    for d, objs in families:
        ctx = IntersectionContext(objs)
        kernel = ctx.dominance_kernel(ctx.full_mask())
        kept = tuple(ctx.objs[i] for i in mask_to_ids(kernel))
        assert brute_pack(Instance(dim=d, objects=kept)).value == brute_pack(Instance(dim=d, objects=tuple(objs))).value
        shrunk += kernel != ctx.full_mask()
    assert shrunk > len(families) // 2


def test_dominance_kernel_is_a_fixed_point():
    # No kept object has a kept neighbour whose closed neighbourhood within
    # the kernel lies in its own (twins included), and the kernel of a mask
    # lies in that mask.
    rng = random.Random(0)
    for _, objs in kernel_families():
        ctx = IntersectionContext(objs)
        for mask in (ctx.full_mask(), rng.getrandbits(ctx.n)):
            kernel = ctx.dominance_kernel(mask)
            assert kernel & ~mask == 0
            for u in mask_to_ids(kernel):
                nu = ctx.nbr[u] & kernel
                for v in mask_to_ids(nu & ~(1 << u)):
                    assert ctx.nbr[v] & kernel & ~nu, (u, v)
