"""The benchmark's tracer rebinds `fatsep` names from outside the package.

Tier-1 never runs the benchmark, so this guard installs the tracer around
small solves: a `src/` change that drops or reshapes a name the tracer wraps
(such as `exact_small_pack`, `exact_small_pierce`, `OVERFLOW` or
`separate(objs, cfg)`, which the solvers call with a `Subfamily` of their
`IntersectionContext` in place of `objs`) fails here instead of only under
`perfbench/run.py --trace 1`.
"""
import importlib.util
from pathlib import Path

from fatsep import measure, ptas, solver
from fatsep.instances import gen_instance

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(pierce_inst, pack_inst):
    # Module attributes, so the call sites the tracer rebinds are the ones run.
    cfg = solver.SolveConfig(base_threshold=2)
    pierce = solver.solve_pierce(pierce_inst, cfg)
    pack = solver.solve_pack(pack_inst, cfg)
    objs = list(pierce_inst.objects)
    pack_objs = list(pack_inst.objects)
    return (
        (pierce.value, pierce.witness, pierce.nodes),
        (pack.value, pack.witness, pack.nodes, pack.depth),
        measure.greedy_pierce(objs).value,
        measure.exact_small_pierce(objs, 0),
        measure.exact_small_pack(pack_objs, 0),
        measure.exact_small_pack(pack_objs, len(pack_objs)),
    )


def test_traced_solve_equals_untraced():
    pierce_inst = gen_instance("random", 2, shape="box", n=14, seed=1)
    # Several components, so the packing closer gets disconnected masks.
    pack_inst = gen_instance("random", 2, n=20, seed=1)
    untraced = run(pierce_inst, pack_inst)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        traced = run(pierce_inst, pack_inst)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert traced[3] is measure.OVERFLOW and traced[4] is measure.OVERFLOW
    assert traced[5].value == traced[1][0]
    assert tracer.calls["solver.solve_pierce"] == 1
    assert tracer.calls["solver.solve_pack"] == 1
    assert tracer.calls["separator.separate"] > 0
    assert tracer.calls["measure.exact_small_pierce"] == 1
    assert tracer.calls["measure.exact_small_pack"] == 2
    metrics = tracer.metrics()
    assert metrics["measure.exact_small_pierce.overflow_ratio"] == 1.0
    assert metrics["measure.exact_small_pack.overflow_ratio"] == 0.5
    assert metrics["solver.nodes"] == untraced[0][2] + untraced[1][2]
    assert run(pierce_inst, pack_inst) == untraced  # uninstall restored the originals


def test_traced_ptas_separates_on_restrictions():
    # The PTAS splits on subfamilies of its one context: the tracer's
    # `separate` hook reads them as object sequences, and the only context
    # build it sees is the solve's own.
    inst = gen_instance("random", 2, n=200, seed=0, density=8)
    cfg = ptas.PtasConfig(epsilon=0.5, c_stop=1.0)

    def run_ptas():
        sol = ptas.ptas_pack(inst, cfg)
        return sol.value, sol.witness, sol.nodes, sol.discarded

    untraced = run_ptas()
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        traced = run_ptas()
    finally:
        tracer.uninstall()
    assert traced == untraced and untraced[3] > 0
    assert tracer.calls["separator.separate"] > 0
    assert tracer.calls["measure.IntersectionContext"] == 1
    assert tracer.metrics()["separator.separate.boundary_frac"] > 0
