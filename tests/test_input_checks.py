import math

import pytest

from fatsep import bench
from fatsep.geometry import AxisBox, Ball, BoxRegion, DimensionMismatchError
from fatsep.instances import Instance, gen_instance
from fatsep.measure import IntersectionContext, Subfamily, exact_small_pack, exact_small_pierce
from fatsep.ptas import PtasConfig
from fatsep.separator import SeparatorConfig, find_base_box, shell_sweep
from fatsep.solver import SolveConfig

PAIR = [Ball((0.0, 0.0), 1.0), Ball((5.0, 0.0), 1.0)]
UNIT = BoxRegion((0.0, 0.0), (1.0, 1.0))

# Each bad input, the error it raises and a pattern of its message.
BAD_INPUTS = {
    "base-threshold-0": (lambda: SolveConfig(base_threshold=0), ValueError, "base_threshold"),
    "base-threshold-fraction": (lambda: SolveConfig(base_threshold=2.5), ValueError, "base_threshold"),
    "base-threshold-inf": (lambda: SolveConfig(base_threshold=math.inf), ValueError, "base_threshold"),
    "node-cap-0": (lambda: SolveConfig(node_cap=0), ValueError, "node_cap"),
    "node-cap-fraction": (lambda: SolveConfig(node_cap=2.5), ValueError, "node_cap"),
    "node-cap-inf": (lambda: SolveConfig(node_cap=math.inf), ValueError, "node_cap"),
    "epsilon-nan": (lambda: SolveConfig(epsilon=math.nan), ValueError, "epsilon"),
    "epsilon-0": (lambda: SolveConfig(epsilon=0.0), ValueError, "epsilon"),
    "epsilon-1": (lambda: SolveConfig(epsilon=1.0), ValueError, "epsilon"),
    "balance-cap-nan": (lambda: SolveConfig(balance_cap=math.nan), ValueError, "balance_cap"),
    "balance-cap-negative": (lambda: SolveConfig(balance_cap=-1.0), ValueError, "balance_cap"),
    "balance-cap-0": (lambda: SolveConfig(balance_cap=0.0), ValueError, "balance_cap"),
    "balance-cap-above-1": (lambda: SolveConfig(balance_cap=1.5), ValueError, "balance_cap"),
    "c-stop-nan": (lambda: PtasConfig(c_stop=math.nan), ValueError, "c_stop"),
    "c-stop-inf": (lambda: PtasConfig(c_stop=math.inf), ValueError, "c_stop"),
    "c-stop-negative": (lambda: PtasConfig(c_stop=-1.0), ValueError, "c_stop"),
    "c-stop-0": (lambda: PtasConfig(c_stop=0.0), ValueError, "c_stop"),
    "separator-epsilon-above-half": (lambda: SeparatorConfig(epsilon=0.6), ValueError, "epsilon"),
    "separator-balance-cap-nan": (lambda: SeparatorConfig(balance_cap=math.nan), ValueError, "balance_cap"),
    "separator-balance-cap-negative": (lambda: SeparatorConfig(balance_cap=-1.0), ValueError, "balance_cap"),
    "base-box-of-nothing": (
        lambda: find_base_box(Subfamily(IntersectionContext(PAIR), 0), 1),
        ValueError,
        "no objects",
    ),
    "sweep-g-0": (lambda: shell_sweep(Subfamily(IntersectionContext(PAIR)), UNIT, 0), ValueError, "g must"),
    "ball-centre-nan": (lambda: Ball((math.nan, 0.0), 1.0), ValueError, "center"),
    "box-lengths-differ": (lambda: AxisBox((0.0, 0.0), (1.0,)), DimensionMismatchError, "dimension"),
    "box-side-0": (lambda: AxisBox((0.0, 0.0), (1.0, 0.0)), ValueError, "extent"),
    "region-lengths-differ": (lambda: BoxRegion((0.0, 0.0), (1.0,)), DimensionMismatchError, "dimension"),
    "region-side-0": (lambda: BoxRegion((0.0, 0.0), (1.0, 0.0)), ValueError, "extent"),
    "instance-dim-1": (lambda: Instance(dim=1, objects=()), ValueError, "dimension"),
    "gen-unknown-shape": (lambda: gen_instance("random", 2, shape="cone", n=1), ValueError, "shape"),
    "gen-unknown-family": (lambda: gen_instance("spiral", 2, n=1), ValueError, "family"),
    "gen-grid-k-0": (lambda: gen_instance("grid", 2, k=0), ValueError, "k >= 1"),
    "gen-random-n-negative": (lambda: gen_instance("random", 2, n=-1), ValueError, "n >= 0"),
    "gen-random-density-negative": (lambda: gen_instance("random", 2, n=3, density=-1.0), ValueError, "density"),
    "gen-random-density-0": (lambda: gen_instance("random", 2, n=3, density=0.0), ValueError, "density"),
    "gen-random-density-inf": (lambda: gen_instance("random", 2, n=3, density=math.inf), ValueError, "density"),
    "gen-random-density-nan": (lambda: gen_instance("random", 2, n=3, density=math.nan), ValueError, "density"),
    "gen-cluster-0": (lambda: gen_instance("cluster", 2, clusters=0, cluster_size=3), ValueError, "clusters"),
    "exact-pack-cap-negative": (lambda: exact_small_pack(PAIR, -1), ValueError, "cap"),
    "exact-pierce-cap-negative": (lambda: exact_small_pierce(PAIR, -1), ValueError, "cap"),
    "unknown-solver": (
        lambda: bench.run_solver("nope", Instance(dim=2, objects=tuple(PAIR)), SolveConfig()),
        ValueError,
        "unknown solver",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_is_rejected(case):
    build, error, pattern = BAD_INPUTS[case]
    with pytest.raises(error, match=pattern):
        build()


def test_config_range_ends_are_accepted():
    # Values at the edges of the ranges stay valid: a balance cap just
    # above 0 and at 1, a tiny and a huge c_stop, and an epsilon above the
    # separator's 1/2, which `bench.run_solver` carries as the PTAS's.
    for cap in (1e-9, 1.0):
        SolveConfig(balance_cap=cap)
        SeparatorConfig(balance_cap=cap)
    SolveConfig(epsilon=0.6)
    for c_stop in (1e-9, 1e9):
        PtasConfig(c_stop=c_stop)
