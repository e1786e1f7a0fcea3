"""Plant known faults in copies of the package, one fault per copy, and check
that the tests catch each of them.

Each entry of MUTANTS names a file under `src/fatsep/`, a text that must
occur in it exactly once, the text that replaces it, and the pytest
selection that must fail on the result.  For each entry the script copies
`src/` into a temporary directory, patches the copy, runs
`python -m pytest -x -q` on the selection with the copy first on
PYTHONPATH, and prints `killed` (some test failed), `SURVIVED` (all
passed), `ERROR` (pytest could not run the selection, say a renamed test)
or `STALE` (the old text does not occur exactly once, so a refactor that
moves the code must update the list), in list order.  `WORKERS` mutants
run at once.  It exits 1 unless every mutant is killed.  EQUIVALENT lists
faults that change no answer, with the reason, so no test can kill them;
they are not run.

Usage (from any directory):

    python scripts/mutants.py                # every mutant
    python scripts/mutants.py --only NAME    # the named ones (repeatable)
    python scripts/mutants.py --list         # names, selections and reasons,
                                             # STALE marked (then exits 1)
"""
import argparse
import concurrent.futures
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# A mutant whose selection runs this long is taken as killed (it hangs).
TIMEOUT_S = 600
# Mutants run this many at a time, each in its own pytest process; most of
# a mutant's time is that process starting up.
WORKERS = 2


class Mutant(NamedTuple):
    name: str
    file: str  # under src/fatsep/
    old: str
    new: str
    selection: str  # pytest arguments, relative to the repository root


MUTANTS = [
    Mutant(
        "sweep-strict-start",
        "candidates.py",
        "column = to_words((lows[:, a] <= xs[:, None])",
        "column = to_words((lows[:, a] < xs[:, None])",
        "tests/test_candidates.py::test_box_candidates_are_the_in_box_grid",
    ),
    Mutant(
        "centre-strict-end",
        "candidates.py",
        "inside &= (lows[:, a] <= x) & (x <= highs[:, a])",
        "inside &= (lows[:, a] <= x) & (x < highs[:, a])",
        "tests/test_candidates.py::test_candidate_rows_are_the_coverage_masks",
    ),
    Mutant(
        "sweep-last-point-per-coverage",
        "candidates.py",
        "first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)",
        "first[:-1] = (ranked[1:] != ranked[:-1]).any(axis=1)",
        "tests/test_candidates.py::test_candidate_rows_are_the_coverage_masks",
    ),
    Mutant(
        "dedupe-word-0-only",
        "candidates.py",
        "first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)",
        "first[1:] = ranked[1:, 0] != ranked[:-1, 0]",
        "tests/test_candidates.py::test_box_candidates_are_the_in_box_grid",
    ),
    # The table's pruning and its restriction to a mask test dominance on
    # its incidence index: a row stays when the rows that pierce every object
    # of its coverage are it alone, and of equal masked rows the first stays.
    Mutant(
        "restrict-dominance-any-word",
        "measure.py",
        "            c ^= low\n    return kept",
        "            c = 0\n    return kept",
        "tests/test_measure.py::test_pierce_table_restricts_to_every_submask",
    ),
    Mutant(
        "restrict-last-of-equal-rows",
        "measure.py",
        "first.setdefault(cov[r] & mask, r)",
        "first[cov[r] & mask] = r",
        "tests/test_measure.py::test_prune_dominated_matches_reference",
    ),
    Mutant(
        "index-misses-last-row",
        "measure.py",
        "self.inc = _transpose(self.cov, ctx.n)",
        "self.inc = _transpose(self.cov[:-1], ctx.n)",
        "tests/test_measure.py::test_pierce_table_index_is_the_transpose_of_its_coverage",
    ),
    # The disk candidates skip only pairs that cannot meet, block by block.
    Mutant(
        "disk-pair-margin-inward",
        "candidates.py",
        "* (1.0 + _PAIR_MARGIN)",
        "* (1.0 - _PAIR_MARGIN)",
        "tests/test_candidates.py::test_disk_pair_filter_keeps_every_intersection",
    ),
    Mutant(
        "base-box-run-start-side",
        "separator.py",
        "bisect_left(coord, x - TOL)",
        "bisect_right(coord, x - TOL)",
        "tests/test_separator.py::test_achieving_box_counts_centres_on_tolerant_faces",
    ),
    Mutant(
        "base-box-run-end-side",
        "separator.py",
        "bisect_right(coord, x + s + TOL)",
        "bisect_left(coord, x + s + TOL)",
        "tests/test_separator.py::test_achieving_box_counts_centres_on_tolerant_faces",
    ),
    # The thresholds: a rung tries the cubes whose threshold is at most its
    # side; a threshold bounds, with slack for rounding, the side at which a
    # cube holds centres of tau cliques, each clique taken as its centres'
    # bounding box.
    Mutant(
        "base-box-filter-strict",
        "separator.py",
        "np.flatnonzero(min_side <= s)",
        "np.flatnonzero(min_side < s)",
        "tests/test_separator.py::test_achieving_box_bound_reaches_tau_exactly",
    ),
    Mutant(
        "base-box-walk-strict",
        "separator.py",
        "greedy_pack_mask(mask)[0] >= tau",
        "greedy_pack_mask(mask)[0] > tau",
        "tests/test_separator.py::test_achieving_box_counts_centres_on_tolerant_faces",
    ),
    Mutant(
        "base-box-slack-dropped",
        "separator.py",
        "slack = 2.0**-40 *",
        "slack = 0.0 *",
        "tests/test_separator.py::test_min_sides_hold_under_rounding",
    ),
    Mutant(
        "base-box-centred-factor",
        "separator.py",
        "sides[:, 0] *= 2.0",
        "sides[:, 0] *= 1.0",
        "tests/test_separator.py::test_min_sides_are_tight_on_disjoint_families",
    ),
    Mutant(
        "base-box-anchored-sides-swapped",
        "separator.py",
        "np.subtract(up, past, out=t)",
        "np.subtract(down, past, out=t)",
        "tests/test_separator.py::test_min_sides_hold_under_rounding",
    ),
    Mutant(
        "base-box-centred-threshold-unsorted",
        "separator.py",
        "        t.sort(axis=1)\n        rows[:, 0] = t[:, k]",
        "        rows[:, 0] = t[:, k]",
        "tests/test_separator.py::test_min_sides_are_tight_on_disjoint_families",
    ),
    Mutant(
        "base-box-threshold-axis-0",
        "separator.py",
        "for a in range(1, d):\n            np.maximum(up,",
        "for a in range(1, 1):\n            np.maximum(up,",
        "tests/test_separator.py::test_min_sides_are_tight_on_disjoint_families",
    ),
    Mutant(
        "clique-growth-unchecked",
        "measure.py",
        "grow &= self.nbr[low.bit_length() - 1] & ~low",
        "grow &= ~low",
        "tests/test_separator.py::test_cliques_are_a_greedy_partition_into_pairwise_intersecting_sets",
    ),
    # The context numbers objects by size rank; ids leave the package as
    # given positions.
    Mutant(
        "pack-output-unmapped",
        "solver.py",
        "sorted(self.ctx.ids[i] for i in witness)",
        "sorted(witness)",
        "tests/test_solver.py::test_solve_order_invariance "
        "tests/test_ptas.py::test_witness_feasible_even_when_lossy",
    ),
    # Piercing searches carry rows of the solve's one table, and branch only
    # on the rows a node's restriction keeps.
    Mutant(
        "restrict-rows-within-live",
        "measure.py",
        "return _undominated(inc, first)",
        "return _undominated(inc, first) >> (live & -live).bit_length() - 1",
        "tests/test_solver.py::test_pierce_matches_oracle",
    ),
    Mutant(
        "dfs-rows-not-kept",
        "solver.py",
        "inc[(unb & -unb).bit_length() - 1] & kept",
        "inc[(unb & -unb).bit_length() - 1]",
        "tests/test_solver.py::test_pierce_base_case_covers_with_kept_rows",
    ),
    # A packing boundary configuration grows by boundary objects that meet
    # none of its own, and blocks, on both sides, the neighbours of all of
    # them.
    Mutant(
        "pack-dfs-blocked-not-joined",
        "solver.py",
        "blocked | nbr[i]",
        "nbr[i]",
        "tests/test_solver.py::test_boundary_dfs_answer_is_best_over_subsets",
    ),
    Mutant(
        "pack-dfs-blocked-misses-a-neighbour",
        "solver.py",
        "blocked | nbr[i])",
        "blocked | 1 << i | (nbr[i] & ~(1 << i)) & ((nbr[i] & ~(1 << i)) - 1))",
        "tests/test_solver.py::test_pack_matches_oracle[box-3]",
    ),
    Mutant(
        "pack-dfs-keeps-neighbours",
        "solver.py",
        "cand & ~nbr[i]",
        "cand",
        "tests/test_solver.py::test_boundary_dfs_visits_each_independent_subset_once",
    ),
    Mutant(
        "cover-boundary-first-row-only",
        "ptas.py",
        "for r in rows:\n        covered |= search.table.cov[r]",
        "for r in rows[:1]:\n        covered |= search.table.cov[r]",
        "tests/test_ptas.py::test_cover_boundary_covers_what_its_points_pierce",
    ),
    Mutant(
        "separate-ids-unmapped",
        "separator.py",
        "enumerate(self.family.given.tolist())",
        "enumerate(np.flatnonzero(self.family.member).tolist())",
        "tests/test_separator.py::test_separate_partition_consistent",
    ),
    Mutant(
        "greedy-pack-witness-unmapped",
        "measure.py",
        "value, chosen = ctx.greedy_pack_mask(ctx.full_mask())\n"
        "    return MeasureEstimate(value=value, witness=ctx.input_ids(chosen))",
        "value, chosen = ctx.greedy_pack_mask(ctx.full_mask())\n"
        "    return MeasureEstimate(value=value, witness=mask_to_ids(chosen))",
        "tests/test_measure.py::test_greedy_pack_witness_independent_and_maximal",
    ),
    Mutant(
        "exact-small-pack-witness-unmapped",
        "measure.py",
        "return OVERFLOW\n    return MeasureEstimate(value=value, witness=ctx.input_ids(chosen))",
        "return OVERFLOW\n    return MeasureEstimate(value=value, witness=mask_to_ids(chosen))",
        "tests/test_measure.py::test_exact_small_pack_full_cap_equals_oracle",
    ),
    Mutant(
        "greedy-pack-highest-bit",
        "measure.py",
        "low = mask & -mask\n            chosen |= low",
        "low = 1 << mask.bit_length() - 1\n            chosen |= low",
        "tests/test_measure.py::test_greedy_pack_concentric",
    ),
    # A subfamily's objects leave it in the family's given order; its base
    # cubes are anchored, and tried, in size-rank order, on a ladder from the
    # centres' extent.
    Mutant(
        "subfamily-given-order",
        "measure.py",
        "return np.argsort(self.ids)",
        "return np.arange(self.n)",
        "tests/test_separator.py::test_rank_axes_are_sorted_prefix_masks",
    ),
    Mutant(
        "base-box-given-order-anchors",
        "separator.py",
        "centers = sub.arrays.center\n    return np.vstack",
        "centers = sub.ctx.arrays.center[sub.given]\n    return np.vstack",
        "tests/test_solver.py::test_answers_do_not_depend_on_object_order",
    ),
    Mutant(
        "base-box-ladder-top-below-extent",
        "separator.py",
        "extent / SIDE_SEARCH_RATIO ** (steps - i)",
        "extent / SIDE_SEARCH_RATIO ** (steps - i + 1)",
        "tests/test_separator.py::test_find_base_box_bounding_corner_first",
    ),
    # The search probes the lowest rung any threshold admits first, and
    # bisects the ladder when that rung fails.
    Mutant(
        "base-box-first-probe-one-rung-up",
        "separator.py",
        "box = rung(r_min)",
        "box = rung(r_min + 1)",
        "tests/test_separator.py::test_find_base_box_follows_the_listed_ladder",
    ),
    Mutant(
        "base-box-lowest-rung-strict",
        "separator.py",
        "side(i) >= low",
        "side(i) > low",
        "tests/test_separator.py::test_find_base_box_first_probes_the_lowest_rung_reaching_the_thresholds",
    ),
    Mutant(
        "base-box-fallback-dropped",
        "separator.py",
        "bisect_left(range(steps), True, key",
        "bisect_left(range(steps), True, steps, key",
        "tests/test_separator.py::test_find_base_box_follows_the_listed_ladder",
    ),
    Mutant(
        "base-box-ladder-floor-below-grid",
        "separator.py",
        "2.0**-50 * float(np.abs(centers).max())",
        "0.0 * float(np.abs(centers).max())",
        "tests/test_separator.py::test_find_base_box_keeps_positive_sides_far_from_the_origin",
    ),
    # A split reads the solve's context through its mask: every cube, anchor
    # and the corner are the subfamily's.
    Mutant(
        "base-box-cube-not-masked",
        "separator.py",
        "mask = sub.mask\n",
        "mask = -1\n",
        "tests/test_separator.py::test_subfamilies_separate_as_their_object_lists",
    ),
    Mutant(
        "base-box-anchors-over-context",
        "separator.py",
        "np.vstack([centers, centers.min(axis=0)])",
        "np.vstack([sub.ctx.arrays.center, centers.min(axis=0)])",
        "tests/test_separator.py::test_subfamilies_separate_as_their_object_lists",
    ),
    Mutant(
        "base-box-corner-over-context",
        "separator.py",
        "np.vstack([centers, centers.min(axis=0)])",
        "np.vstack([centers, sub.ctx.arrays.center.min(axis=0)])",
        "tests/test_separator.py::test_find_base_box_on_a_subfamily_anchors_at_its_own_corner",
    ),
    # The shell sweep's row is the final classification; its shells are
    # `magnify`'s, built as one corner array.
    Mutant(
        "sweep-shell-low-above-centre",
        "separator.py",
        "np.stack([centre - half, centre + half], axis=1)",
        "np.stack([centre + half, centre + half], axis=1)",
        "tests/test_separator.py::test_shell_sweep_classifies_against_magnifys_shells",
    ),
    Mutant(
        "sweep-returns-other-shell",
        "separator.py",
        "codes[best_j]",
        "codes[best_j - 1]",
        "tests/test_separator.py::test_shell_sweep_returns_the_chosen_shells_classification",
    ),
    # A pivot is a split whose boundary is one object; a boundary
    # configuration removes its objects' closed neighbourhoods from both
    # sides.
    Mutant(
        "pack-pivot-empty-boundary",
        "solver.py",
        "return mask & ~o, 0, o",
        "return mask & ~o, 0, 0",
        "tests/test_solver.py::test_dense_families_above_the_oracle_guards_match_milp",
    ),
    Mutant(
        "pack-pivot-take-only",
        "solver.py",
        "return mask & ~o, 0, o",
        "return mask & ~self.ctx.nbr[o.bit_length() - 1], 0, o",
        "tests/test_solver.py::test_dense_families_above_the_oracle_guards_match_milp",
    ),
    Mutant(
        "pierce-pivot-empty-boundary",
        "solver.py",
        "return mask & ~obit, 0, obit",
        "return mask & ~obit, 0, 0",
        "tests/test_solver.py::test_forced_fallback_same_value",
    ),
    Mutant(
        "boundary-removes-only-chosen",
        "solver.py",
        "blocked | nbr[i]",
        "blocked | 1 << i",
        "tests/test_solver.py::test_dense_families_match_oracle_on_every_path",
    ),
    # A node not handed its estimate sums its components' estimates; a
    # component node hands every part its estimate, a lone object's 1.
    Mutant(
        "part-estimates-max",
        "solver.py",
        "g = sum(estimates)",
        "g = max(estimates)",
        "tests/test_solver.py::test_pierce_matches_oracle",
    ),
    Mutant(
        "part-handed-estimate-low",
        "solver.py",
        "answers.append(self.solve(part, estimate))",
        "answers.append(self.solve(part, estimate - 1))",
        "tests/test_solver.py::test_handed_estimates_answer_as_computed_ones",
    ),
    Mutant(
        "lone-object-estimate-zero",
        "solver.py",
        "if c & (c - 1) else 1 for c in parts]",
        "if c & (c - 1) else 0 for c in parts]",
        "tests/test_solver.py::test_handed_estimates_answer_as_computed_ones",
    ),
    # The closer takes a component of two objects, which meet, by its
    # smaller one.
    Mutant(
        "closer-pair-takes-both",
        "measure.py",
        "chosen |= part & -part",
        "chosen |= part",
        "tests/test_solver.py::test_pack_answers_pinned_on_the_seed_1_benchmark_mix",
    ),
    # A batch hands the closer its own components.
    Mutant(
        "batch-closed-with-earlier-parts",
        "solver.py",
        "                batch = load = 0\n                held = []\n",
        "                batch = load = 0\n",
        "tests/test_solver.py::test_pack_answers_pinned_on_the_seed_1_benchmark_mix",
    ),
    # A batch closes once its estimates would pass `base_threshold`.
    Mutant(
        "batch-ignores-base-threshold",
        "solver.py",
        "if load + estimate > cap:",
        "if False:",
        "tests/test_solver.py::test_pack_matches_oracle[ball-2]",
    ),
    # Every branch of a closer ticks the solve's budget; the piercing closer
    # is the boundary search, its whole mask the boundary.
    Mutant(
        "pack-closer-skips-tick",
        "measure.py",
        "nonlocal best_val, best_wit\n            tick()\n",
        "nonlocal best_val, best_wit\n",
        "tests/test_solver.py::test_node_cap_bounds_closer_branches",
    ),
    Mutant(
        "pierce-closer-skips-tick",
        "solver.py",
        "nonlocal best, limit, depth\n            tick()\n",
        "nonlocal best, limit, depth\n",
        "tests/test_solver.py::test_node_cap_bounds_closer_branches",
    ),
    # The boundary search counts a configuration only below its bound: the
    # node's greedy cover size plus one, then the best found.  A closed
    # boundary needs no further point.
    Mutant(
        "pierce-limit-excludes-greedy",
        "solver.py",
        "limit = g + 1\n",
        "limit = g\n",
        "tests/test_solver.py::test_pierce_matches_oracle",
    ),
    Mutant(
        "pierce-closed-pruned-as-open",
        "solver.py",
        "if len(picked) < limit:",
        "if len(picked) + 1 < limit:",
        "tests/test_solver.py::test_pierce_matches_oracle",
    ),
    # Tolerances: objects within TOL of touching meet, and an object is
    # inside a box only TOL clear of its faces.
    Mutant(
        "box-meet-strict",
        "measure.py",
        "reach &= lo[:, a, None] <= hi[:, a]",
        "reach &= lo[:, a, None] < hi[:, a]",
        "tests/test_measure.py::test_intersection_context_matches_intersects",
    ),
    # Every ball test squares by multiplication, `t * t`, the predicates and
    # the kernels alike; a square taken with `pow` (`**`, `float_power`)
    # rounds the last bit otherwise on near-tangent pairs.
    Mutant(
        "ball-scalar-pow",
        "geometry.py",
        "t = x - y\n        s += t * t",
        "t = x - y\n        s += t ** 2",
        "tests/test_measure.py::test_intersection_context_rounds_like_intersects",
    ),
    Mutant(
        "ball-matrix-pow",
        "measure.py",
        "np.multiply(blim2, blim2, out=blim2)",
        "np.float_power(blim2, 2.0, out=blim2)",
        "tests/test_measure.py::test_intersection_context_rounds_like_intersects",
    ),
    Mutant(
        "classify-pow",
        "separator.py",
        "d2 += t * t",
        "d2 += np.float_power(t, 2.0)",
        "tests/test_separator.py::test_shapes_classify_rounds_like_classify",
    ),
    Mutant(
        "coverage-pow",
        "candidates.py",
        "d2 += t * t",
        "d2 += np.float_power(t, 2.0)",
        "tests/test_candidates.py::test_coverage_masks_matches_contains_point",
    ),
    Mutant(
        "classify-inside-without-tol",
        "separator.py",
        "inside &= shapes.low[:, a] >= l + TOL",
        "inside &= shapes.low[:, a] >= l",
        "tests/test_separator.py::test_shapes_classify_matches_classify",
    ),
    # With balls only, the distances decide outside on their own.
    Mutant(
        "classify-box-tests-skipped-with-any-ball",
        "separator.py",
        "every_ball = balls.all()",
        "every_ball = balls.any()",
        "tests/test_separator.py::test_shapes_classify_matches_classify",
    ),
    # The PTAS splits a part only when its greedy estimate lies above the
    # stop threshold and below its size: an independent part is a leaf, and
    # one pair that meets is enough to split.
    Mutant(
        "ptas-splits-independent-parts",
        "ptas.py",
        "if stop < g < mask.bit_count() else None",
        "if g > stop else None",
        "tests/test_ptas.py::test_disjoint_family_is_closed_without_a_split",
    ),
    Mutant(
        "ptas-closes-one-pair-short",
        "ptas.py",
        "if stop < g < mask.bit_count() else None",
        "if stop < g < mask.bit_count() - 1 else None",
        "tests/test_ptas.py::test_one_meeting_pair_still_splits",
    ),
    # A PTAS solve walks each mask's greedy packing once, and piercing
    # restricts each mask once, on memos that live as long as the solve.
    Mutant(
        "ptas-walk-memo-kept-across-solves",
        "ptas.py",
        "ctx.greedy_pack_mask = functools.cache(ctx.greedy_pack_mask)",
        'ctx.greedy_pack_mask = globals().setdefault("_walks", functools.cache(ctx.greedy_pack_mask))',
        "tests/test_ptas.py::test_ptas_walks_each_mask_once_per_solve",
    ),
    Mutant(
        "ptas-walk-memo-outlives-solve",
        "ptas.py",
        "    del ctx.greedy_pack_mask\n",
        "",
        "tests/test_ptas.py::test_ptas_walks_each_mask_once_per_solve",
    ),
    Mutant(
        "ptas-restrict-memo-outlives-solve",
        "ptas.py",
        "        del table.restrict\n",
        "        pass\n",
        "tests/test_ptas.py::test_ptas_pierce_restricts_each_mask_once_per_solve",
    ),
    # Packing starts from the dominance kernel: u goes for a neighbour whose
    # closed neighbourhood lies in its own, and of twins the higher id goes.
    Mutant(
        "kernel-subset-reversed",
        "measure.py",
        "if not nv & ~nu and",
        "if not nu & ~nv and",
        "tests/test_measure.py::test_dominance_kernel_keeps_a_maximum_packing",
    ),
    Mutant(
        "kernel-keeps-twins",
        "measure.py",
        "(nv != nu or bit < low)",
        "nv != nu",
        "tests/test_measure.py::test_dominance_kernel_is_a_fixed_point",
    ),
    Mutant(
        "kernel-twin-keeps-higher-id",
        "measure.py",
        "(nv != nu or bit < low)",
        "(nv != nu or bit > low)",
        "tests/test_ptas.py::test_ptas_answers_pinned_on_the_seed_1_benchmark_mix",
    ),
    # A subcommand takes only the shared flags it reads.
    Mutant(
        "cli-solvers-take-seed",
        "cli.py",
        '_add_shared(p, "--in", "--out", "--svg", *_SOLVE)',
        '_add_shared(p, "--in", "--out", "--svg", "--seed", *_SOLVE)',
        "tests/test_cli.py::test_cli_refuses_flags_its_command_ignores",
    ),
]


class Equivalent(NamedTuple):
    name: str
    file: str  # under src/fatsep/
    old: str
    new: str
    reason: str


EQUIVALENT = [
    Equivalent(
        "clique-source-fresh-partition",
        "separator.py",
        "_, _, members, labels = sub.ctx.rank_axes\n",
        "from types import SimpleNamespace\n"
        "    from .measure import mask_to_ids\n"
        "    fresh = IntersectionContext.cliques.func(SimpleNamespace(full_mask=lambda: sub.mask, nbr=sub.ctx.nbr))\n"
        "    members = np.array([i for c in fresh for i in mask_to_ids(c)], dtype=np.intp)\n"
        "    labels = np.repeat(np.arange(len(fresh)), [c.bit_count() for c in fresh])\n",
        "a fresh greedy clique partition of the mask and `ctx.cliques` cut to the mask are both "
        "clique partitions of it, so both bound every cube soundly: only the cubes walked change, "
        "never the first achieving one",
    ),
]


def stale(mutant) -> bool:
    """True when the mutant's old text does not occur exactly once."""
    return (ROOT / "src" / "fatsep" / mutant.file).read_text().count(mutant.old) != 1


def run(mutant: Mutant) -> str:
    """The mutant's verdict: 'killed', 'SURVIVED', 'ERROR' or 'STALE'."""
    if stale(mutant):
        return "STALE"
    source = (ROOT / "src" / "fatsep" / mutant.file).read_text()
    with tempfile.TemporaryDirectory(prefix="fatsep-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        (src / "fatsep" / mutant.file).write_text(source.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        # Hypothesis' pytest plugin costs about a second of start-up per run;
        # `@given` tests run without it.
        plugins = ["-p", "no:cacheprovider", "-p", "no:hypothesispytest"]
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", *plugins, *mutant.selection.split()]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed"
    # pytest exits 1 when a test failed, 0 when all passed, and otherwise on
    # collection or usage errors.
    return {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--only", action="append", metavar="NAME", help="run only this mutant (repeatable)")
    p.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = p.parse_args(argv)
    names = [m.name for m in MUTANTS]
    unknown = set(args.only or ()) - set(names)
    if unknown:
        p.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    if args.list:
        for m in chosen:
            print(f"{'STALE ' if stale(m) else ''}{m.name}\t{m.file}\t{m.selection}")
        for e in EQUIVALENT:
            print(f"{'STALE ' if stale(e) else ''}equivalent {e.name}\t{e.file}\t{e.reason}")
        return 1 if any(map(stale, chosen + EQUIVALENT)) else 0

    def timed(m: Mutant):
        start = time.perf_counter()
        return run(m), time.perf_counter() - start

    bad = 0
    with concurrent.futures.ThreadPoolExecutor(WORKERS) as pool:
        # `map` yields in list order, so the verdicts print in that order.
        for m, (verdict, seconds) in zip(chosen, pool.map(timed, chosen)):
            bad += verdict != "killed"
            print(f"{verdict:8} {m.name} ({seconds:.1f} s)", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
