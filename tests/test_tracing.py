"""The benchmark's tracer rebinds `fatsep` names from outside the package.

Tier-1 never runs the benchmark, so this guard installs the tracer around a
small solve: a `src/` change that drops or reshapes a name the tracer wraps
(such as `exact_small_pierce`, `OVERFLOW` or `separate(objs, cfg)`) fails
here instead of only under `perfbench/run.py --trace 1`.
"""
import importlib.util
from pathlib import Path

from fatsep import measure, solver
from fatsep.instances import gen_instance

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(inst):
    # Module attributes, so the call sites the tracer rebinds are the ones run.
    sol = solver.solve_pierce(inst, solver.SolveConfig(base_threshold=2))
    objs = list(inst.objects)
    return (
        (sol.value, sol.witness, sol.nodes),
        measure.greedy_pierce(objs).value,
        measure.exact_small_pierce(objs, 0),
    )


def test_traced_solve_equals_untraced():
    inst = gen_instance("random", 2, shape="box", n=14, seed=1)
    untraced = run(inst)
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        traced = run(inst)
    finally:
        tracer.uninstall()
    assert traced == untraced
    assert traced[2] is measure.OVERFLOW
    assert tracer.calls["solver.solve_pierce"] == 1
    assert tracer.calls["separator.separate"] > 0
    assert tracer.calls["measure.exact_small_pierce"] == 1
    metrics = tracer.metrics()
    assert metrics["measure.exact_small_pierce.overflow_ratio"] == 1.0
    assert run(inst) == untraced  # uninstall restored the originals
