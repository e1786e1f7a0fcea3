import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from fatsep import separator
from fatsep.geometry import (
    TOL,
    AxisBox,
    Ball,
    BoxRegion,
    DimensionMismatchError,
    RegionClass,
    ShapeArrays,
    center,
    classify,
    intersects,
    magnify,
    size,
)
from fatsep.instances import gen_instance
from fatsep.measure import IntersectionContext, Subfamily, greedy_pack, mask_to_ids
from fatsep.separator import (
    SIDE_SEARCH_RATIO,
    SeparatorConfig,
    find_base_box,
    separate,
    _classify,
    shell_count,
    shell_sweep,
)
from fatsep.solver import SolveConfig, _PackSearch
from conftest import families_and_masks, huge_ball_family, overflowing_offsets, random_objects


def tight_cluster(cx, cy, n, seed, r=0.1, spread=1.0):
    """n pairwise-disjoint small disks near (cx, cy)."""
    rng = random.Random(seed)
    disks = []
    while len(disks) < n:
        c = (cx + rng.uniform(-spread, spread), cy + rng.uniform(-spread, spread))
        if all(math.dist(c, d.center) > 2 * r + 0.01 for d in disks):
            disks.append(Ball(c, r))
    return disks


def test_find_base_box_single_cluster():
    rng = random.Random(2)
    objs = [Ball((rng.uniform(0, 1), rng.uniform(0, 1)), 0.05) for _ in range(9)]
    ctx = IntersectionContext(objs)
    box = find_base_box(Subfamily(ctx), 3)
    inside = [o for o in objs if all(l - 1e-9 <= c <= h + 1e-9 for c, l, h in zip(o.center, box.low, box.high))]
    assert greedy_pack(inside).value >= 3
    # independent oracle: exhaustive ascending ladder scan for the first
    # achieving size must match the search's result
    s = next(s for s in ladder(objs) if achieving_box(ctx, s, 3) is not None)
    assert box.longest_side == pytest.approx(s)


def achieving_box(ctx, s, tau):
    """`separator._achieving_box` on the whole of `ctx`, on the anchors and
    thresholds `find_base_box` gives it."""
    sub = Subfamily(ctx)
    anchors = separator._anchors(sub)
    return separator._achieving_box(sub, anchors, s, tau, separator._min_sides(sub, anchors, tau))


def min_sides(ctx, tau):
    """`separator._min_sides` on the whole of `ctx`."""
    sub = Subfamily(ctx)
    return separator._min_sides(sub, separator._anchors(sub), tau)


def candidate_cubes(ctx, s):
    """Every candidate cube of side s, in candidate order, as its low corners
    and its centre set (a candidates x objects boolean array): the cubes
    centred on, low-anchored at and high-anchored at each centre, in
    size-rank order (`ctx.objs`), then the one low-anchored at their
    bounding-box corner."""
    centers = np.array([center(o) for o in ctx.objs])
    cubes = np.stack([centers - s / 2.0, centers, centers - s], axis=1).reshape(-1, centers.shape[1])
    lows = np.concatenate([cubes, centers.min(axis=0)[None]])
    highs = lows + s
    return lows, np.all((centers >= lows[:, None] - 1e-9) & (centers <= highs[:, None] + 1e-9), axis=2)


def reference_achieving_box(ctx, s, tau):
    """The per-candidate loop: each candidate cube's centre set by a plain
    numpy comparison (`candidate_cubes`), the cubes taken in candidate order
    and a low corner already tried skipped."""
    lows, cubes = candidate_cubes(ctx, s)
    seen = set()
    for k in np.flatnonzero(cubes.sum(axis=1) >= tau).tolist():
        lo = tuple(lows[k].tolist())
        if lo in seen:
            continue
        seen.add(lo)
        mask = sum(1 << i for i in np.flatnonzero(cubes[k]).tolist())
        value, _ = ctx.greedy_pack_mask(mask)
        if value >= tau:
            return BoxRegion(lo, tuple(x + s for x in lo))
    return None


def reference_on_thresholds(sub, anchors, s, tau, min_side):
    """`reference_achieving_box` in `_achieving_box`'s place; it ignores the
    anchors and thresholds."""
    return reference_achieving_box(sub.ctx, s, tau)


def reference_base_box(monkeypatch, objs, tau):
    with monkeypatch.context() as m:
        m.setattr(separator, "_achieving_box", reference_on_thresholds)
        return find_base_box(Subfamily(IntersectionContext(objs)), tau)


def test_find_base_box_matches_per_candidate_loop(monkeypatch):
    families = []
    for d in (2, 3):
        for seed in range(3):
            families.append(random_objects(seed, 30, d=d))
            families.append(random_objects(seed, 30, d=d, shape="box"))
    # Repeated centres give repeated candidates, which are skipped.
    twins = random_objects(9, 12)
    families.append(twins + [Ball(o.center, o.radius / 2) for o in twins])
    # Dense families, whose cliques of more than 8 objects spread their
    # centres over wide boxes.
    for shape, n, seed in (("ball", 40, 1), ("box", 60, 0)):
        objs = list(gen_instance("random", 2, shape=shape, n=n, seed=seed, density=8).objects)
        assert max(c.bit_count() for c in IntersectionContext(objs).cliques) > 8
        families.append(objs)
    for objs in families:
        g = greedy_pack(objs).value
        for tau in sorted({1, max(1, g // 2), g}):
            got = find_base_box(Subfamily(IntersectionContext(objs)), tau)
            want = reference_base_box(monkeypatch, objs, tau)
            assert (got.low, got.high) == (want.low, want.high)


def listed_ladder(sub, tau):
    """`find_base_box`'s ladder for `sub`, listed bottom up, with the anchors
    and thresholds it hands `_achieving_box`."""
    centers = sub.arrays.center
    extent = float((centers.max(axis=0) - centers.min(axis=0)).max())
    floor = max(extent * 1e-9, 2.0**-50 * float(np.abs(centers).max()))
    steps = max(int(math.log(extent / floor) / math.log(SIDE_SEARCH_RATIO)), 0)
    anchors = separator._anchors(sub)
    return [extent / SIDE_SEARCH_RATIO**j for j in range(steps, -1, -1)], anchors, separator._min_sides(sub, anchors, tau)


def ladder_bisection(sub, tau, first=-1):
    """The bounding rung of the listed ladder, then a bisection for an
    achieving rung, rungs up to `first` counted as failing unasked.  Returns
    its box and the sides it asked `_achieving_box` about, in order; with no
    `first`, the base-box search before it probed a lowest rung first."""
    ladder, anchors, min_side = listed_ladder(sub, tau)
    asked = []

    def probe(i):
        if i <= first:
            return None
        asked.append(ladder[i])
        return separator._achieving_box(sub, anchors, ladder[i], tau, min_side)

    best = probe(len(ladder) - 1)
    if best is None:
        return None, asked
    lo, hi = 0, len(ladder) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        box = probe(mid)
        if box is not None:
            hi, best = mid, box
        else:
            lo = mid + 1
    return best, asked


def ladder_search(sub, tau):
    """The base-box search over its listed ladder: the lowest rung whose side
    reaches every threshold's minimum (found by a scan), then, when that
    fails, `ladder_bisection` with the rungs up to it failing.  Returns the
    box, the sides asked, in order, and whether the first probe achieved."""
    ladder, anchors, min_side = listed_ladder(sub, tau)
    first = next((i for i, s in enumerate(ladder) if s >= min_side.min()), len(ladder))
    if first == len(ladder):
        return None, [], False
    box = separator._achieving_box(sub, anchors, ladder[first], tau, min_side)
    if box is not None:
        return box, [ladder[first]], True
    best, asked = ladder_bisection(sub, tau, first)
    return best, [ladder[first]] + asked, False


def test_find_base_box_follows_the_listed_ladder(monkeypatch):
    # The same rungs asked in the same order, and the same box, as
    # `ladder_search` over the listed ladder, on masks of ball and box
    # families, whose first probes achieve and fail; above the mask's
    # clique count every threshold is inf, no rung is asked and both fail.
    # The box is never larger than the bisection's of the whole ladder.
    rng = random.Random(7)
    asked = []
    original = separator._achieving_box

    def recording(sub, anchors, s, tau, min_side):
        asked.append(s)
        return original(sub, anchors, s, tau, min_side)

    outcomes = {"first": 0, "fallback": 0, "unreachable": 0}
    for shape in ("ball", "box"):
        for d in (2, 3):
            for density in (1.0, 8.0):
                ctx = IntersectionContext(gen_instance("random", d, shape=shape, n=50, seed=d, density=density).objects)
                for mask in (ctx.full_mask(), rng.getrandbits(ctx.n) | 3):
                    sub = Subfamily(ctx, mask)
                    cliques = len(separator._clique_boxes(sub)[0])
                    g = ctx.greedy_pack_mask(mask)[0]
                    for tau in sorted({1, 2, max(1, g // 3), math.ceil(1.25 / 3 * g), g, cliques, cliques + 1}):
                        want, want_asked, first = ladder_search(sub, tau)
                        del asked[:]
                        with monkeypatch.context() as m:
                            m.setattr(separator, "_achieving_box", recording)
                            if want is None:
                                with pytest.raises(ValueError):
                                    find_base_box(sub, tau)
                            else:
                                assert find_base_box(sub, tau) == want
                        assert asked == want_asked, (shape, d, tau)
                        if tau > cliques:
                            assert want is None and not asked
                            assert np.isinf(separator._min_sides(sub, separator._anchors(sub), tau)).all()
                            outcomes["unreachable"] += 1
                        if want is None:
                            continue
                        outcomes["first" if first else "fallback"] += 1
                        assert want.longest_side <= ladder_bisection(sub, tau)[0].longest_side
    assert all(outcomes.values()), outcomes


def test_find_base_box_first_probes_the_lowest_rung_reaching_the_thresholds(monkeypatch):
    # Every threshold set to one value: the first rung asked is the first
    # listed rung whose side reaches it.  That is rung 0 for 0, the rung
    # itself for a rung's side or one ulp below it, and the next rung one
    # ulp above it.  Above the centres' extent (the top rung's side) no rung
    # reaches it, none is asked and the search fails.
    sub = Subfamily(IntersectionContext(random_objects(4, 20)))
    ladder, _, min_side = listed_ladder(sub, 2)
    k = len(ladder) // 2
    original = separator._achieving_box
    asked = []

    def recording(sub, anchors, s, tau, min_side):
        asked.append(s)
        return original(sub, anchors, s, tau, min_side)

    lows = (0.0, ladder[k], math.nextafter(ladder[k], 0.0), math.nextafter(ladder[k], math.inf))
    lows += (math.nextafter(ladder[-1], math.inf), math.inf)
    wants = [ladder[0], ladder[k], ladder[k], ladder[k + 1], None, None]
    for low, want in zip(lows, wants):
        assert want == next((s for s in ladder if s >= low), None)
        del asked[:]
        with monkeypatch.context() as m:
            m.setattr(separator, "_min_sides", lambda sub, anchors, tau: np.full_like(min_side, low))
            m.setattr(separator, "_achieving_box", recording)
            if want is None:
                with pytest.raises(ValueError):
                    find_base_box(sub, 2)
                assert asked == []
            else:
                find_base_box(sub, 2)
                assert asked[0] == want, low


def test_find_base_box_bounding_corner_first(monkeypatch):
    # No cube anchored at a centre holds both centres; the one at the
    # bounding-box corner (0, 0) does, at the top rung, the centres' extent.
    objs = [Ball((0.0, 1.0), 0.1), Ball((1.0, 0.0), 0.1)]
    box = find_base_box(Subfamily(IntersectionContext(objs)), 2)
    assert box.low == (0.0, 0.0)
    assert box.high == (1.0, 1.0)
    want = reference_base_box(monkeypatch, objs, 2)
    assert (box.low, box.high) == (want.low, want.high)


def test_achieving_box_tolerance_at_cube_faces():
    # Q lies half a TOL past the far face of the unit cube low-anchored at P,
    # and P half a TOL below the cube high-anchored at Q; either order
    # reaches tau only through the TOL on one side of the comparison.
    p, q = Ball((0.0, 0.0), 0.1), Ball((1.0 + TOL / 2, 0.0), 0.1)
    for objs in ([p, q], [q, p]):
        ctx = IntersectionContext(objs)
        got = achieving_box(ctx, 1.0, 2)
        want = reference_achieving_box(ctx, 1.0, 2)
        assert got is not None and (got.low, got.high) == (want.low, want.high)


def achieves_on_any_cube(ctx, s, tau):
    """True when some candidate cube of side s, any of `candidate_cubes`,
    holds centres whose greedy measure reaches tau: every cube walked, none
    skipped by a threshold or a centre count."""
    _, cubes = candidate_cubes(ctx, s)
    return any(
        ctx.greedy_pack_mask(sum(1 << i for i in np.flatnonzero(row).tolist()))[0] >= tau for row in cubes
    )


def test_find_base_box_evaluates_each_rung_once(monkeypatch):
    # Each rung is asked at most once and the box is the last achieving
    # rung's.  When the first probe achieves, no candidate cube of any lower
    # rung reaches tau, walked without thresholds; when it fails, the box is
    # the bisection's of the whole ladder.  The box is never larger than
    # that bisection's.
    families = [random_objects(1, 40), random_objects(2, 40, d=3, shape="box"), random_objects(3, 30, d=3)]
    families.append(list(gen_instance("random", 2, shape="box", n=40, seed=5, density=8).objects))
    original = separator._achieving_box
    outcomes = set()
    for objs in families:
        ctx = IntersectionContext(objs)
        sub = Subfamily(ctx)
        g = greedy_pack(objs).value
        for tau in sorted({2, max(1, g // 3), math.ceil(1.25 / 3.0 * g), max(1, g // 2), g}):
            calls = []

            def counting(sub, anchors, s, tau, min_side):
                box = original(sub, anchors, s, tau, min_side)
                calls.append((s, box))
                return box

            with monkeypatch.context() as m:
                m.setattr(separator, "_achieving_box", counting)
                got = find_base_box(sub, tau)
            sides = [s for s, _ in calls]
            assert len(set(sides)) == len(sides)
            assert [box for _, box in calls if box is not None][-1] == got
            old, _ = ladder_bisection(sub, tau)
            assert got.longest_side <= old.longest_side
            ladder = listed_ladder(sub, tau)[0]
            if calls[0][1] is not None:
                outcomes.add("first")
                assert not any(achieves_on_any_cube(ctx, s, tau) for s in ladder if s < sides[0])
            else:
                outcomes.add("fallback")
                assert got == old
    assert outcomes == {"first", "fallback"}


def rank_walk_families(balls=24, boxes=12, per_dim=4, seed=11):
    """Families with tied sizes, ids shuffled so size order differs from id order."""
    rng = random.Random(seed)
    families = []
    for d in (2, 3):
        for _ in range(per_dim):
            objs = [
                Ball(tuple(rng.uniform(0, 8) for _ in range(d)), rng.choice((0.3, 0.5, 0.8)))
                for _ in range(balls)
            ]
            for _ in range(boxes):
                lo = tuple(rng.uniform(0, 8) for _ in range(d))
                w = rng.choice((0.6, 1.0))
                objs.append(AxisBox(lo, tuple(x + w for x in lo)))
            rng.shuffle(objs)
            families.append(objs)
    return families


def test_achieving_box_rank_walk_matches_reference():
    for objs in rank_walk_families():
        ctx = IntersectionContext(objs)
        assert ctx.ids != sorted(ctx.ids)
        assert len({size(o) for o in ctx.objs}) < len(objs)
        g = greedy_pack(objs).value
        for s in (0.5, 1.5, 3.0, 6.0, 12.0):
            for tau in range(1, g + 1):
                got = achieving_box(ctx, s, tau)
                want = reference_achieving_box(ctx, s, tau)
                assert got == want, (s, tau)


def candidate_masks(ctx, s):
    """Centre mask of every candidate cube of side s, in candidate order, by
    the reference's comparison (`candidate_cubes`)."""
    return [sum(1 << i for i in np.flatnonzero(row).tolist()) for row in candidate_cubes(ctx, s)[1]]


def late_cluster_family():
    """60 small disjoint disks spread wide, then 10 larger disjoint disks
    packed close: small cubes reach tau only at the cluster, whose first
    candidate in size order is number 180, past the former 128-cube block."""
    spread = [Ball((10.0 * (k % 10), 10.0 * (k // 10)), 0.05) for k in range(60)]
    return spread + tight_cluster(200.0, 200.0, 10, 5)


def twin_family():
    """40 objects, then 40 twins of theirs with the same centres and half
    the size: twin k repeats object k's candidate cubes 120 candidates
    later, so most repeated masks straddle candidate 128, where the former
    first block ended."""
    objs = random_objects(12, 40, span=6.0)
    return objs + [Ball(o.center, o.radius / 2) for o in objs]


def test_achieving_box_matches_reference_across_blocks(monkeypatch):
    # The former candidate block size: cubes that achieve past it, and
    # repeated masks that straddle it, still run.
    block = 128
    families = rank_walk_families(balls=48, boxes=24, per_dim=2, seed=5)
    families += [late_cluster_family(), twin_family()]
    late = straddled = 0
    for objs in families:
        ctx = IntersectionContext(objs)
        n = len(objs)
        assert 3 * n + 1 > block
        g = greedy_pack(objs).value
        for s in (0.5, 1.5, 3.0, 12.0):
            masks = candidate_masks(ctx, s)
            for tau in sorted({1, 2, 5, g // 2, g}):
                walked = []
                original = ctx.greedy_pack_mask

                def recording(mask):
                    walked.append(mask)
                    return original(mask)

                with monkeypatch.context() as m:
                    m.setattr(ctx, "greedy_pack_mask", recording)
                    got = achieving_box(ctx, s, tau)
                want = reference_achieving_box(ctx, s, tau)
                assert got == want, (n, s, tau)
                counted = [k for k, mask in enumerate(masks) if mask.bit_count() >= tau]
                if got is not None:
                    first = next(k for k in counted if masks[k] == walked[-1])
                    late += first >= block
                    counted = [k for k in counted if k <= first]
                first_seen = {}
                for k in counted:
                    first_seen.setdefault(masks[k], k)
                straddled += any(first_seen[masks[k]] < block <= k for k in counted)
    assert late and straddled


def test_achieving_box_counts_centres_on_tolerant_faces():
    # On axis 0 the second centre sits exactly at the low-anchored unit
    # cube's `low - TOL` and the third at its `high + TOL`: both count, as
    # a cube's faces are closed within TOL, so that cube is the first to
    # reach 3.
    objs = [Ball((0.0, 0.0), 0.3), Ball((0.0 - TOL, 0.9), 0.3), Ball((1.0 + TOL, 0.45), 0.3)]
    ctx = IntersectionContext(objs)
    box = achieving_box(ctx, 1.0, 3)
    assert box == BoxRegion((0.0, 0.0), (1.0, 1.0)) == reference_achieving_box(ctx, 1.0, 3)


def test_rank_axes_are_sorted_prefix_masks():
    rng = random.Random(3)
    for objs in rank_walk_families(balls=12, boxes=6, per_dim=1):
        ctx = IntersectionContext(objs)
        # Built on first use only.
        assert "rank_axes" not in vars(ctx)
        coords, prefixes, members, labels = ctx.rank_axes
        for a, prefix in enumerate(prefixes):
            ranked = [center(o)[a] for o in ctx.objs]
            by_coord = sorted(range(len(ranked)), key=ranked.__getitem__)
            assert coords[a] == [ranked[r] for r in by_coord]
            assert prefix == [sum(1 << r for r in by_coord[:k]) for k in range(len(ranked) + 1)]
        assert members.tolist() == [i for clique in ctx.cliques for i in mask_to_ids(clique)]
        assert labels.tolist() == [q for q, clique in enumerate(ctx.cliques) for _ in mask_to_ids(clique)]
        # Per call, a subfamily's anchors are its centres in size-rank
        # order, then its own corner, and its clique boxes those of the
        # cliques cut to its mask.  Its objects still leave in given order.
        assert list(Subfamily(ctx)) == objs
        for mask in (ctx.full_mask(), rng.getrandbits(ctx.n) | 1):
            sub = Subfamily(ctx, mask)
            ranked = [list(center(ctx.objs[i])) for i in mask_to_ids(mask)]
            anchors = separator._anchors(sub)
            assert anchors.tolist() == ranked + [[min(c[a] for c in ranked) for a in range(len(coords))]]
            cut = [clique & mask for clique in ctx.cliques if clique & mask]
            clique_low, clique_high = separator._clique_boxes(sub)
            for q, clique in enumerate(cut):
                centres = [center(ctx.objs[i]) for i in range(ctx.n) if clique >> i & 1]
                assert clique_low[q].tolist() == [min(c) for c in zip(*centres)]
                assert clique_high[q].tolist() == [max(c) for c in zip(*centres)]
            assert len(clique_low) == len(clique_high) == len(cut)


def test_cliques_are_a_greedy_partition_into_pairwise_intersecting_sets():
    families = [objs[:20] for objs in rank_walk_families(per_dim=1)]
    for shape, n, seed in (("ball", 40, 1), ("box", 60, 0), ("ball", 30, 2)):
        families.append(list(gen_instance("random", 2, shape=shape, n=n, seed=seed, density=8).objects))
    widest = 0
    for objs in families:
        ctx = IntersectionContext(objs)
        cliques = ctx.cliques
        assert sum(cliques) == ctx.full_mask() and sum(c.bit_count() for c in cliques) == ctx.n
        widest = max(widest, *(c.bit_count() for c in cliques))
        placed = 0
        for clique in cliques:
            ids = [i for i in range(ctx.n) if clique >> i & 1]
            assert all(intersects(ctx.objs[a], ctx.objs[b]) for a in ids for b in ids)
            # It starts at the smallest object not yet placed, and no object
            # still unplaced afterwards meets all its members.
            free = [i for i in range(ctx.n) if not (placed | clique) >> i & 1]
            assert ids[0] == min(i for i in range(ctx.n) if not placed >> i & 1)
            assert not any(all(intersects(ctx.objs[i], ctx.objs[a]) for a in ids) for i in free)
            placed |= clique
    assert widest > 8


def cliques_met(ctx, s):
    """How many cliques of `ctx.cliques` each candidate cube of side s holds
    a centre of."""
    member = np.array([[clique >> i & 1 for clique in ctx.cliques] for i in range(ctx.n)])
    return ((candidate_cubes(ctx, s)[1].astype(int) @ member) > 0).sum(axis=1)


def candidate_sides(ctx, tau):
    """`_min_sides` in candidate order, without the corner row's unused
    entries."""
    sides = min_sides(ctx, tau)
    assert np.isinf(sides[[3 * ctx.n, 3 * ctx.n + 2]]).all()
    return np.delete(sides, [3 * ctx.n, 3 * ctx.n + 2])


def ladder(objs):
    """The sides of `find_base_box`'s ladder for `objs`, ascending, up to
    rounding: from the centres' extent down by the ratio, no lower than
    1e-9 of it or 2^-50 of the largest centre coordinate."""
    coords = list(zip(*(center(o) for o in objs)))
    extent = max(max(c) - min(c) for c in coords)
    floor = max(extent * 1e-9, 2.0**-50 * max(abs(x) for c in coords for x in c))
    sides = [extent]
    while sides[-1] / SIDE_SEARCH_RATIO >= floor:
        sides.append(sides[-1] / SIDE_SEARCH_RATIO)
    return sides[::-1]


def moved(objs, shift=0.0, scale=1.0):
    """`objs` scaled by `scale` about the origin, then translated by `shift`
    on every axis."""

    def move(p):
        return tuple(x * scale + shift for x in p)

    return [
        Ball(move(o.center), o.radius * scale) if isinstance(o, Ball) else AxisBox(move(o.low), move(o.high))
        for o in objs
    ]


def face_family(c, s):
    """A ball centred at c, and balls centred exactly on the tolerant faces
    (`low - TOL`, `high + TOL`), on each axis, of the three cubes of side s
    anchored at c, as `_achieving_box` computes those faces."""
    objs = [Ball(c, s / 8)]
    for a in range(len(c)):
        for low in (c[a] - s / 2.0, c[a], c[a] - s):
            for x in (low - TOL, low + s + TOL):
                objs.append(Ball(c[:a] + (x,) + c[a + 1 :], s / 8))
    return objs


def assert_thresholds_hold(ctx, rungs, tau):
    """No candidate cube holding centres of tau cliques at a side s of
    `rungs` has a threshold above s, and each rung finds the reference's
    cube."""
    sides = candidate_sides(ctx, tau)
    sub = Subfamily(ctx)
    anchors = separator._anchors(sub)
    min_side = separator._min_sides(sub, anchors, tau)
    for s in rungs:
        met = cliques_met(ctx, s)
        assert not np.any((met >= tau) & (sides > s)), (s, tau)
        got = separator._achieving_box(sub, anchors, s, tau, min_side)
        assert got == reference_achieving_box(ctx, s, tau), (s, tau)


def test_min_sides_hold_under_rounding():
    # Far from the origin TOL falls below an ulp, and scaled families meet
    # it at other magnitudes; the thresholds must stay below every side at
    # which a cube reaches tau cliques, on every ladder rung.
    bases = [random_objects(3, 14), random_objects(4, 12, shape="box"), random_objects(5, 10, d=3)]
    for shift, scale in ((1e6, 1.0), (1e9, 1.0), (0.0, 1e-3), (0.0, 1e3), (1e9, 1e3)):
        for objs in bases:
            objs = moved(objs, shift, scale)
            ctx = IntersectionContext(objs)
            g = greedy_pack(objs).value
            for tau in sorted({1, 2, max(1, g // 2), g}):
                assert_thresholds_hold(ctx, ladder(objs), tau)
        # Centres exactly on the faces of a cube of side s: each counts.
        for s in (0.7, 1.0, 3.0):
            objs = face_family((shift, shift), s * scale)
            ctx = IntersectionContext(objs)
            for tau in range(1, len(ctx.cliques) + 1):
                assert_thresholds_hold(ctx, [s * scale], tau)


def disjoint_balls(seed, n, d):
    """n pairwise-disjoint balls in [0, 10]^d."""
    rng = random.Random(seed)
    objs = []
    while len(objs) < n:
        b = Ball(tuple(rng.uniform(0, 10) for _ in range(d)), rng.uniform(0.1, 0.4))
        if not any(intersects(b, o) for o in objs):
            objs.append(b)
    return objs


def test_min_sides_are_tight_on_disjoint_families():
    # Every clique is one object, so a cube reaches tau cliques as soon as
    # it holds tau centres: three TOL above its threshold it does, and a
    # cube whose threshold is inf never does.
    unreachable = 0
    for objs in (disjoint_balls(1, 25, 2), disjoint_balls(2, 20, 3), tight_cluster(0.0, 0.0, 12, 3)):
        ctx = IntersectionContext(objs)
        assert len(ctx.cliques) == ctx.n
        huge = 1e3 * max(max(c) - min(c) for c in zip(*(center(o) for o in objs)))
        for tau in (1, 2, 5, ctx.n // 2, ctx.n):
            sides = candidate_sides(ctx, tau)
            finite = np.isfinite(sides)
            for k in np.flatnonzero(finite).tolist():
                assert cliques_met(ctx, max(sides[k] + 3 * TOL, 1e-12))[k] >= tau, (tau, k)
            assert (cliques_met(ctx, huge)[~finite] < tau).all()
            unreachable += (~finite).sum()
        assert np.isinf(min_sides(ctx, ctx.n + 1)).all()
    assert unreachable


def test_achieving_box_bound_reaches_tau_exactly(monkeypatch):
    # Three disjoint pairs of overlapping disks: the cube around all six
    # centres holds six objects in three cliques, exactly tau = 3, the
    # greedy value.
    objs = []
    for x in (0.0, 1.0, 2.0):
        objs += [Ball((x, 0.0), 0.2), Ball((x, 0.1), 0.1)]
    ctx = IntersectionContext(objs)
    assert len(ctx.cliques) == 3
    box = achieving_box(ctx, 2.0, 3)
    assert box is not None and box == reference_achieving_box(ctx, 2.0, 3)
    sub = Subfamily(ctx)
    assert find_base_box(sub, 3) == reference_base_box(monkeypatch, objs, 3)
    # A rung tries exactly the cubes whose threshold is at most its side.
    at = np.full(3 * ctx.n + 3, 2.0)
    anchors = separator._anchors(sub)
    assert separator._achieving_box(sub, anchors, 2.0, 3, at) == box
    assert separator._achieving_box(sub, anchors, 2.0, 3, np.nextafter(at, math.inf)) is None


def test_find_base_box_peak_memory():
    # The threshold scan works in blocks of rows, in place, and no pairwise
    # centre distance is taken.
    objs = list(gen_instance("random", 2, shape="ball", n=400, seed=1).objects)
    ctx = IntersectionContext(objs)
    tau = math.ceil(1.25 / 3.0 * greedy_pack(objs).value)
    ctx.rank_axes
    tracemalloc.start()
    try:
        find_base_box(Subfamily(ctx), tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 700_000


def test_find_base_box_walks_few_cubes(monkeypatch):
    # The bound leaves at least 10x fewer walks than the distinct centre
    # masks of tau or more objects that the per-candidate loop walks.
    objs = list(gen_instance("random", 2, shape="ball", n=400, seed=1).objects)
    tau = math.ceil(1.25 / 3.0 * greedy_pack(objs).value)
    walks = []
    ctx = IntersectionContext(objs)
    original = ctx.greedy_pack_mask

    def recording(mask):
        walks.append(mask)
        return original(mask)

    with monkeypatch.context() as m:
        m.setattr(ctx, "greedy_pack_mask", recording)
        got = find_base_box(Subfamily(ctx), tau)
    distinct = 0

    def counting(sub, anchors, s, tau, _):
        nonlocal distinct
        ctx = sub.ctx
        walked = set()
        ctx.greedy_pack_mask = lambda mask: walked.add(mask) or type(ctx).greedy_pack_mask(ctx, mask)
        try:
            return reference_achieving_box(ctx, s, tau)
        finally:
            del ctx.greedy_pack_mask
            distinct += len(walked)

    with monkeypatch.context() as m:
        m.setattr(separator, "_achieving_box", counting)
        want = find_base_box(Subfamily(IntersectionContext(objs)), tau)
    assert got == want
    assert walks and 10 * len(walks) <= distinct


CODES = {
    separator._INSIDE: RegionClass.INSIDE,
    separator._BOUNDARY: RegionClass.BOUNDARY,
    separator._OUTSIDE: RegionClass.OUTSIDE,
}


def corners(boxes):
    """`boxes` as the boxes x 2 x d array of their corners that `_classify`
    takes."""
    return np.array([(b.low, b.high) for b in boxes])


def assert_classify_matches(objs, boxes):
    """`_classify` of `objs` against the corner array of `boxes` equals
    `classify`; returns `classify`'s classes."""
    want = [[classify(o, b) for o in objs] for b in boxes]
    codes = separator._classify(ShapeArrays(objs), corners(boxes))
    assert codes.shape == (len(boxes), len(objs))
    assert [[CODES[c] for c in row] for row in codes.tolist()] == want
    return want


def near_faces(box, shape):
    """Objects exactly and 0.5, 1 and 2 TOL either side of touching each
    face of `box`: (those touching it from outside, those from inside)."""
    r = min(box.sides) / 10
    touch = ([], [])
    for a in range(box.dim):
        for face, out in ((box.low[a], -1.0), (box.high[a], 1.0)):
            for k in (-2, -1, -0.5, 0, 0.5, 1, 2):
                for side, objs in zip((1.0, -1.0), touch):
                    c = list(box.center)
                    c[a] = face + side * out * (r + k * TOL)
                    if shape == "ball":
                        objs.append(Ball(tuple(c), r))
                    else:
                        objs.append(AxisBox(tuple(v - r for v in c), tuple(v + r for v in c)))
    return touch


@pytest.mark.parametrize("d", [2, 3])
def test_shapes_classify_matches_classify(d):
    rng = random.Random(d)
    base = BoxRegion(
        tuple(rng.uniform(0, 2) for _ in range(d)), tuple(rng.uniform(4, 6) for _ in range(d))
    )
    shells = [magnify(base, 1.0 + j * 0.07) for j in range(12)]
    soup = random_objects(d, 40, d=d, span=8.0) + random_objects(d, 40, d=d, shape="box", span=8.0)
    near = []
    for shape in ("ball", "box"):
        for j in (0, 5, 11):
            outside, inside = near_faces(shells[j], shape)
            # Each side's offsets straddle its predicate's TOL.
            assert {classify(o, shells[j]) for o in outside} == {RegionClass.OUTSIDE, RegionClass.BOUNDARY}
            assert {classify(o, shells[j]) for o in inside} == {RegionClass.INSIDE, RegionClass.BOUNDARY}
            near += outside + inside
    balls = [o for o in near if isinstance(o, Ball)]
    boxes = [o for o in near if isinstance(o, AxisBox)]
    for objs in (balls, boxes, near + soup):
        want = assert_classify_matches(objs, shells)
        assert {c for row in want for c in row} == set(RegionClass)


def test_shapes_classify_rounds_like_classify():
    # Balls tangent to a face at 0, with gaps g = r + TOL whose square
    # rounds differently under g * g than under Python's `**`: squaring
    # either side of the kernel's or `classify`'s ball test with `pow` flips
    # a class.
    rng = random.Random(4)
    radii = []
    while len(radii) < 40:
        r = rng.uniform(0.2, 0.5)
        g = r + TOL
        if g * g != g**2:
            radii.append(r)
    assert {(r + TOL) * (r + TOL) > (r + TOL) ** 2 for r in radii} == {True, False}
    boxes = [BoxRegion((-1.0, 0.0), (0.0, 1.0)), BoxRegion((0.0, 0.0), (1.0, 1.0))]
    objs = [Ball((r + TOL, 0.5), r) for r in radii] + [Ball((-(r + TOL), 0.5), r) for r in radii]
    want = assert_classify_matches(objs, boxes)
    assert want[0][: len(radii)] == [RegionClass.BOUNDARY] * len(radii)
    assert want[1][len(radii) :] == [RegionClass.BOUNDARY] * len(radii)
    # Balls off a box's corner on two axes, within an ulp or so of
    # touching, whose sums of squares compare otherwise under x * x than
    # under `**`.
    gen = np.random.default_rng(4)
    r = gen.uniform(0.2, 0.5, 20000)
    limit = r + TOL
    dx = limit * gen.uniform(0.2, 0.8, 20000)
    dy = np.sqrt(limit * limit - dx * dx)
    objs = []
    for _ in range(5):
        mult = dx * dx + dy * dy > limit * limit
        power = np.float_power(dx, 2.0) + np.float_power(dy, 2.0) > np.float_power(limit, 2.0)
        objs += [Ball((dx[k], dy[k]), r[k]) for k in np.flatnonzero(mult != power).tolist()]
        dy = np.nextafter(dy, np.inf)
    corner = [BoxRegion((-1.0, -1.0), (0.0, 0.0))]
    want = assert_classify_matches(objs, corner)
    assert len(objs) >= 10 and set(want[0]) == {RegionClass.OUTSIDE, RegionClass.BOUNDARY}
    # Near +-1e160 the offsets round in the subtraction; against each pair's
    # first ball's bounding box, its second ball falls either side of
    # touching.
    far = random.Random(5)
    for x in (1e160, -1e160):
        objs = huge_ball_family(x, far)
        boxes = [BoxRegion(tuple(c - o.radius for c in o.center), tuple(c + o.radius for c in o.center)) for o in objs[::2]]
        want = assert_classify_matches(objs, boxes)
        assert {want[k][2 * k + 1] for k in range(len(boxes))} == {RegionClass.OUTSIDE, RegionClass.BOUNDARY}
    # At the top of the float range a squared offset overflows under x * x
    # and not under `pow`: squared by multiplication, these balls are
    # outside the box.
    limit, offsets = overflowing_offsets()
    objs = [Ball(xy, limit) for xy in offsets]
    with np.errstate(over="ignore"):
        want = assert_classify_matches(objs, corner)
    assert want == [[RegionClass.OUTSIDE] * len(objs)]


def test_shapes_classify_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        ShapeArrays([Ball((0.0, 0.0), 1.0), Ball((0.0, 0.0, 0.0), 1.0)])
    square = BoxRegion((0.0, 0.0), (1.0, 1.0))
    for objs in ([Ball((0.0, 0.0, 0.0), 1.0)], [AxisBox((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))]):
        with pytest.raises(DimensionMismatchError):
            separator._classify(ShapeArrays(objs), corners([square]))
        with pytest.raises(DimensionMismatchError):
            shell_sweep(Subfamily(IntersectionContext(objs)), square, 4)


def test_find_base_box_total_measure():
    objs = random_objects(4, 20)
    g = greedy_pack(objs).value
    box = find_base_box(Subfamily(IntersectionContext(objs)), g)
    for o in objs:
        assert all(l - 1e-9 <= c <= h + 1e-9 for c, l, h in zip(o.center, box.low, box.high))


def test_find_base_box_keeps_positive_sides_far_from_the_origin():
    # At 1e9 the relative floor, 1e-9 of the centres' extent, lies below the
    # coordinates' float grid; the ladder stops above it, so a tau reached by
    # any one centre still gets a cube of positive sides.
    objs = moved(random_objects(3, 14), 1e9)
    sub = Subfamily(IntersectionContext(objs))
    assert min(find_base_box(sub, 1).sides) > 0
    assert min(separate(objs).box.sides) > 0


def test_find_base_box_picks_one_cluster():
    objs = tight_cluster(0, 0, 5, 1) + tight_cluster(1000, 0, 5, 2)
    box = find_base_box(Subfamily(IntersectionContext(objs)), 5)
    assert box.longest_side < 100  # one cluster, not a box spanning both


def test_shell_sweep_classifies_against_magnifys_shells(monkeypatch):
    # The sweep builds every shell's corners at once; they are `magnify`'s,
    # bit for bit, for random boxes of every scale and many g.
    rng = random.Random(6)
    subs = {d: Subfamily(IntersectionContext(random_objects(d, 3, d=d))) for d in (2, 3)}
    seen = []
    original = separator._classify

    def recording(shapes, boxes):
        seen.append(boxes)
        return original(shapes, boxes)

    monkeypatch.setattr(separator, "_classify", recording)
    for _ in range(2000):
        d = rng.choice((2, 3))
        scale = 10.0 ** rng.uniform(-6, 6)
        low = [rng.uniform(-1e3, 1e3) * scale for _ in range(d)]
        base = BoxRegion(low, [x + rng.uniform(1e-3, 1e3) * scale for x in low])
        g = rng.randint(1, 500)
        shell_sweep(subs[d], base, g)
        step = 1.0 / g ** (1.0 / d)
        want = [magnify(base, 1.0 + j * step) for j in range(shell_count(d, g))]
        assert seen.pop().tolist() == [[list(b.low), list(b.high)] for b in want]


def test_shell_sweep_nothing_on_boundary():
    objs = [Ball((100 + i * 10, 100), 1) for i in range(4)]
    base = BoxRegion((0, 0), (5, 5))
    m, bm, _ = shell_sweep(Subfamily(IntersectionContext(objs)), base, 4)
    assert m == 1.0 and bm == 0


def test_shell_sweep_g1_single_shell():
    objs = [Ball((0, 0), 1), Ball((0.5, 0), 1)]
    base = BoxRegion((-1, -1), (1, 1))
    m, _, _ = shell_sweep(Subfamily(IntersectionContext(objs)), base, 1)
    assert m == 1.0
    assert shell_count(2, 1) == 1


def test_shell_sweep_minimizes_and_counts_shells():
    rng = random.Random(8)
    objs = [Ball((rng.uniform(0, 30), rng.uniform(0, 30)), 0.3) for _ in range(100)]
    sub = Subfamily(IntersectionContext(objs))
    base = find_base_box(sub, 10)
    g = 25
    assert shell_count(2, g) == 3
    m_star, bm, _ = shell_sweep(sub, base, g)
    # independent re-evaluation of every shell
    step = 1.0 / math.sqrt(g)
    values = {}
    for j in range(3):
        box = magnify(base, 1 + j * step)
        bd = [o for o in objs if classify(o, box) is RegionClass.BOUNDARY]
        values[1 + j * step] = greedy_pack(bd).value
    assert bm == min(values.values())
    assert values[m_star] == bm
    assert m_star == min(m for m, v in values.items() if v == bm)
    # pigeonhole: the reported minimum never exceeds the shell average
    assert bm <= sum(values.values()) / len(values)


@pytest.mark.parametrize("shape", ["ball", "box"])
def test_shell_sweep_returns_the_chosen_shells_classification(shape):
    # The row is the final classification: `separate` does not classify the
    # chosen shell again.
    chosen = set()
    # Seed 10 is the first box family whose sweep keeps the first shell.
    for seed in (*range(6), 10):
        objs = list(gen_instance("random", 2, shape=shape, n=60, seed=seed).objects)
        ctx = IntersectionContext(objs)
        g = greedy_pack(objs).value
        base = find_base_box(Subfamily(ctx), math.ceil(1.25 / 3 * g))
        m_star, _, row = shell_sweep(Subfamily(ctx), base, g)
        want = _classify(ctx.arrays, corners([magnify(base, m_star)]))[0]
        assert row.dtype == want.dtype and row.tolist() == want.tolist()
        chosen.add(m_star > 1.0)
    # Both the first shell and a later one were chosen.
    assert chosen == {False, True}


def test_separate_classifies_once(monkeypatch):
    # Once, in the shell sweep: coincident centres make a clique, so the
    # sweep has a single shell.
    calls = []
    original = separator._classify

    def counted(shapes, boxes):
        calls.append(len(boxes))
        return original(shapes, boxes)

    monkeypatch.setattr(separator, "_classify", counted)
    sep = separate([Ball((5, 5), float(r)) for r in (1, 2, 3)])
    assert sep.degenerate and sep.m_star == 1.0 and calls == [1]
    del calls[:]
    sep = separate(random_objects(3, 30))
    assert not sep.degenerate and len(calls) == 1 and calls[0] > 1


def separator_fields(sep):
    """What a `SeparatorResult` says about its family, given positions
    included."""
    measures = (sep.mu_total, sep.mu_inside, sep.mu_outside, sep.mu_boundary)
    return (
        sep.box,
        sep.base_box,
        sep.m_star,
        sep.inside_ids,
        sep.outside_ids,
        sep.boundary_ids,
        [m.value for m in measures],
        sep.degenerate,
    )


def check_subfamily_separates_as_its_objects(ctx, mask):
    """`separate` of the subfamily of `mask` equals `separate` of a list of
    its objects in given order, its masks are that list's ids mapped back
    to bits, and `_Search.split(mask)` returns those masks unless the split
    is unbalanced."""
    bits = sorted(mask_to_ids(mask), key=ctx.ids.__getitem__)
    given = [ctx.objs[i] for i in bits]
    sub = Subfamily(ctx, mask)
    assert list(sub) == given and len(sub) == len(given)
    got, want = separate(sub), separate(given)
    assert separator_fields(got) == separator_fields(want)
    parts = (want.inside_ids, want.outside_ids, want.boundary_ids)
    regions = tuple(sum(1 << bits[k] for k in ids) for ids in parts)
    assert (got.inside, got.outside, got.boundary) == regions
    split = _PackSearch(ctx, SolveConfig(balance_cap=1.0)).split(mask)
    assert split == (None if want.unbalanced(1.0) else regions)
    return split is not None


@settings(max_examples=40, deadline=None)
@given(families_and_masks())
def test_separate_on_a_restriction_equals_separate_on_its_objects(case):
    objs, mask = case
    check_subfamily_separates_as_its_objects(IntersectionContext(objs), mask)


def test_subfamilies_separate_as_their_object_lists():
    # Fixed families and masks of every shape, dimension and density, half
    # of each family and a random part of it.
    rng = random.Random(5)
    splits = 0
    for shape in ("ball", "box"):
        for d in (2, 3):
            for density in (1.0, 8.0):
                inst = gen_instance("random", d, shape=shape, n=40, seed=d, density=density)
                ctx = IntersectionContext(inst.objects)
                for mask in (ctx.full_mask(), sum(1 << i for i in range(0, ctx.n, 2)), rng.getrandbits(ctx.n)):
                    splits += check_subfamily_separates_as_its_objects(ctx, mask)
    assert splits


def test_find_base_box_on_a_subfamily_anchors_at_its_own_corner(monkeypatch):
    # As `test_find_base_box_bounding_corner_first`, with a third object
    # left out of the mask: the corner is the subfamily's, not the context's.
    objs = [Ball((0.0, 1.0), 0.1), Ball((1.0, 0.0), 0.1), Ball((-3.0, -3.0), 0.1)]
    ctx = IntersectionContext(objs)
    sub = Subfamily(ctx, ctx.full_mask() & ~(1 << ctx.ids.index(2)))
    box = find_base_box(sub, 2)
    assert box.low == (0.0, 0.0)
    assert box.high == (1.0, 1.0)
    want = reference_base_box(monkeypatch, objs[:2], 2)
    assert (box.low, box.high) == (want.low, want.high)


def _sweep_claim_case(seed):
    """Random instance with many tiny objects so the small class is nonempty."""
    rng = random.Random(seed)
    objs = []
    for _ in range(40):
        objs.append(Ball((rng.uniform(0, 20), rng.uniform(0, 20)), rng.uniform(1.0, 2.0)))
    for _ in range(60):
        objs.append(Ball((rng.uniform(0, 20), rng.uniform(0, 20)), rng.uniform(0.005, 0.05)))
    return objs


def check_shell_claim(objs, d=2):
    from fatsep.geometry import intersects

    g = greedy_pack(objs).value
    if g < 2:
        return 0
    tau = max(int(math.ceil(1.25 / 3.0 * g)), 1)
    base = find_base_box(Subfamily(IntersectionContext(objs)), tau)
    count = shell_count(d, g)
    if count < 2:
        return 0
    l = base.longest_side / (8.0 * g ** (1.0 / d))
    small = [o for o in objs if size(o) < l]
    step = 1.0 / g ** (1.0 / d)
    per_shell = []
    for j in range(count):
        box = magnify(base, 1 + j * step)
        per_shell.append([o for o in small if classify(o, box) is RegionClass.BOUNDARY])
    pairs = 0
    for j1 in range(count):
        for j2 in range(j1 + 1, count):
            for a in per_shell[j1]:
                for b in per_shell[j2]:
                    assert not intersects(a, b)
                    pairs += 1
    return pairs


def test_shell_claim_cross_shell_disjointness():
    total = 0
    for seed in range(40):
        total += check_shell_claim(_sweep_claim_case(seed))
    assert total > 0  # the property was actually exercised


def test_separate_partition_consistent():
    for seed in range(10):
        objs = random_objects(seed, 30)
        sep = separate(objs)
        ids = sorted(sep.inside_ids + sep.outside_ids + sep.boundary_ids)
        assert ids == list(range(len(objs)))
        for i, o in enumerate(objs):
            cls = classify(o, sep.box)
            if i in sep.inside_ids:
                assert cls is RegionClass.INSIDE
            elif i in sep.outside_ids:
                assert cls is RegionClass.OUTSIDE
            else:
                assert cls is RegionClass.BOUNDARY
        assert max(sep.box.sides) / min(sep.box.sides) <= 2 + 1e-9
        # base_box ⊆ box ⊆ magnify(base_box, 2^(1/d))
        outer = magnify(sep.base_box, 2 ** (1.0 / 2))
        for i in range(2):
            assert sep.box.low[i] <= sep.base_box.low[i] + 1e-9
            assert sep.box.high[i] >= sep.base_box.high[i] - 1e-9
            assert sep.box.low[i] >= outer.low[i] - 1e-9
            assert sep.box.high[i] <= outer.high[i] + 1e-9


def test_separate_two_far_clusters():
    objs = tight_cluster(0, 0, 10, 3) + tight_cluster(1000, 0, 10, 4)
    sep = separate(objs, SeparatorConfig(epsilon=0.5))
    assert sep.mu_boundary.value == 0
    assert sep.mu_inside.value == 10
    assert sep.mu_outside.value == 10
    total = sep.mu_total.value
    assert max(sep.mu_inside.value, sep.mu_outside.value) <= 0.8 * total


def test_separate_degenerate_coincident_centers():
    # Coincident centres make a clique: the sweep's one shell is the base
    # box itself, and every object crosses it.
    families = [
        [Ball((5, 5), float(r)) for r in (1, 2, 3)],
        [Ball((5, 5), 1.0), AxisBox((4, 3), (6, 7)), AxisBox((3, 4), (7, 6)), Ball((5, 5), 0.25)],
        [Ball((-2, 1, 3), float(r)) for r in (0.5, 1, 4, 2)],
    ]
    for objs in families:
        sep = separate(objs)
        assert sep.degenerate
        assert sep.m_star == 1.0 and sep.box == magnify(sep.base_box, 1.0)
        assert sep.boundary_ids == list(range(len(objs)))
        assert sep.mu_boundary.value == 1


def test_separate_lays_out_the_family_once(monkeypatch):
    # One context per call, and its arrays serve the base box, the shell
    # sweep and the final classification.
    from fatsep import geometry

    built = {"contexts": 0, "arrays": 0}
    for cls, key in ((IntersectionContext, "contexts"), (geometry.ShapeArrays, "arrays")):
        init = cls.__init__

        def counted(self, objs, init=init, key=key):
            built[key] += 1
            init(self, objs)

        monkeypatch.setattr(cls, "__init__", counted)
    objs = random_objects(3, 30) + random_objects(3, 10, shape="box")
    sep = separate(objs)
    assert not sep.degenerate and sep.m_star > 1.0
    assert built == {"contexts": 1, "arrays": 1}


def test_separate_requires_two_objects():
    with pytest.raises(ValueError):
        separate([Ball((0, 0), 1)])


def test_grid_boundary_scaling_snapshot():
    # scaled-down version of the acceptance scaling law
    from fatsep.calibration import SEPARATOR_BOUNDARY_COEFF

    for d, ks in ((2, (3, 5, 7)), (3, (3, 4))):
        for k in ks:
            inst = gen_instance("grid", d, k=k, seed=k)
            sep = separate(list(inst.objects))
            p = k**d
            assert sep.mu_boundary.value <= SEPARATOR_BOUNDARY_COEFF[d] * p ** ((d - 1) / d)
