"""An independent MILP reference for packing and piercing values, for
families above the brute-force oracles' guards.

Packing is maximum independent set as a 0-1 program, with x_i + x_j <= 1
for each pair that scalar `geometry.intersects` reports.  Piercing is set
cover over the oracle's candidate points (`oracle._pierce_candidates`),
each object covered by the candidates that pierce it
(`oracle._coverage_masks`, scalar `contains_point`).  Both go to
`scipy.optimize.milp` (HiGHS) with `mip_rel_gap` 0, so the value is proven
optimal, and each witness is checked with the scalar predicates before its
length is returned.  Nothing here reads the solver's contexts, tables or
kernels.
"""
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from fatsep.geometry import contains_point, intersects
from fatsep.oracle import _coverage_masks, _pierce_candidates


def _solve01(cost, rows, low, high):
    """The 0-1 vector of least `cost @ x` with `low <= rows @ x <= high`."""
    constraints = [LinearConstraint(rows, low, high)] if len(rows) else []
    res = milp(
        cost,
        constraints=constraints,
        integrality=np.ones(len(cost)),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert res.success, res.message
    return [k for k, x in enumerate(res.x) if x > 0.5]


def milp_pack(objs) -> int:
    """Pack of `objs`, with a witness checked pairwise by `intersects`."""
    n = len(objs)
    if not n:
        return 0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if intersects(objs[i], objs[j])]
    rows = np.zeros((len(pairs), n))
    for k, (i, j) in enumerate(pairs):
        rows[k, i] = rows[k, j] = 1
    chosen = _solve01(-np.ones(n), rows, -np.inf, 1)
    assert not any(intersects(objs[a], objs[b]) for x, a in enumerate(chosen) for b in chosen[x + 1 :])
    return len(chosen)


def milp_pierce(objs) -> int:
    """Pierce of `objs`, with a witness checked by `contains_point`."""
    n = len(objs)
    if not n:
        return 0
    points = _pierce_candidates(objs)
    cov = _coverage_masks(objs, points)
    rows = np.array([[c >> i & 1 for c in cov] for i in range(n)], dtype=float)
    picked = [points[k] for k in _solve01(np.ones(len(points)), rows, 1, np.inf)]
    assert all(any(contains_point(o, p) for p in picked) for o in objs)
    return len(picked)
