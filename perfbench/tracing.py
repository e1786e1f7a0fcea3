"""Spans and counters recorded from outside `fatsep`.

`Tracer.install()` rebinds the layer functions in every `fatsep` module
namespace that holds them.  The modules import names by value (`solver`
holds its own `separate`, `measure` its own `intersects`), so patching only
the defining module would miss those call sites; scanning every namespace
for the original object catches them all.  `IntersectionContext` is patched
on the class, through `__init__`.  `uninstall()` restores the originals.

Each wrapped call records a span (id, parent id, solve id, name, start,
end).  Self time is a span's duration minus the durations of its direct
child spans.  The geometry predicates run millions of times per solve, so
they get call counters only, with no spans.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from fatsep import candidates, geometry, measure, ptas, separator, solver

# (module, public name) pairs that get a span around each call.
SPANNED = [
    (measure, "IntersectionContext"),
    (measure, "greedy_pack"),
    (measure, "greedy_pierce"),
    (measure, "exact_small_pack"),
    (measure, "exact_small_pierce"),
    (measure, "prune_dominated"),
    (separator, "separate"),
    (separator, "find_base_box"),
    (separator, "shell_sweep"),
    (candidates, "candidate_pierce_points"),
    (candidates, "coverage_masks"),
    (solver, "solve_pack"),
    (solver, "solve_pierce"),
    (ptas, "ptas_pack"),
    (ptas, "ptas_pierce"),
]
# Geometry predicates: call counts only.
COUNTED = ["intersects", "classify", "contains_point"]


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _key(objs, *rest) -> int:
    """Hash of one call's input; equal inputs give equal keys.

    Objects are frozen dataclasses of floats, so the hash does not depend on
    PYTHONHASHSEED and repeats across processes.
    """
    return hash((tuple(objs),) + rest)


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.sums: Dict[str, int] = defaultdict(int)
        self.distinct: Dict[str, set] = defaultdict(set)
        self._stack: List[list] = []
        self._solve_id = -1
        self._restore: List[Callable[[], None]] = []
        self._t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------
    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [len(self.spans), parent, name, time.perf_counter(), 0.0]
        self.spans.append(None)  # reserve the id; filled in by _exit
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, name, start, child = frame
        dur = end - start
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][4] += dur
        self.spans[span_id] = (
            span_id,
            parent,
            self._solve_id,
            name,
            round(start - self._t0, 7),
            round(end - self._t0, 7),
        )

    def run_solve(self, solve_id: int, fn: Callable, *args):
        """Run one solve under a root span that its layer spans hang from."""
        self._solve_id = solve_id
        frame = self._enter("bench.solve")
        try:
            return fn(*args)
        finally:
            self._exit(frame)

    def _spanned(self, name: str, fn: Callable, after: Optional[Callable]) -> Callable:
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    # -- per-layer statistics ------------------------------------------
    def _after(self, name: str) -> Optional[Callable]:
        sums, distinct = self.sums, self.distinct

        def separate(args, kwargs, sep):
            objs = args[0]
            cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
            cfg = cfg or separator.SeparatorConfig()
            distinct[name].add(_key(objs, dataclasses.astuple(cfg)))
            # The solver's and the PTAS's balance predicate.
            total = sep.mu_total.value
            unbalanced = (
                sep.degenerate
                or len(sep.boundary_ids) == len(objs)
                or max(sep.mu_inside.value, sep.mu_outside.value)
                > cfg.balance_cap * total
            )
            sums[name + ".unbalanced"] += unbalanced
            sums[name + ".boundary"] += len(sep.boundary_ids)
            sums[name + ".objects"] += len(objs)

        def candidate_pierce_points(args, kwargs, points):
            sums[name + ".points"] += len(points)

        def coverage_masks(args, kwargs, masks):
            objs, points = args[0], args[1]
            sums[name + ".tests"] += len(objs) * len(points)
            distinct[name].add(_key(objs, tuple(points)))

        def exact_small(args, kwargs, result):
            objs = args[0]
            cap = kwargs.get("cap", args[1] if len(args) > 1 else None)
            distinct[name].add(_key(objs, cap))
            sums[name + ".overflow"] += result is measure.OVERFLOW

        def solve(args, kwargs, sol):
            sums["solver.nodes"] += sol.nodes
            sums["solver.depth_max"] = max(sums["solver.depth_max"], sol.depth)

        def ptas_solve(args, kwargs, sol):
            sums["ptas.discarded"] += sol.discarded

        return {
            "separator.separate": separate,
            "candidates.candidate_pierce_points": candidate_pierce_points,
            "candidates.coverage_masks": coverage_masks,
            "measure.exact_small_pack": exact_small,
            "measure.exact_small_pierce": exact_small,
            "solver.solve_pack": solve,
            "solver.solve_pierce": solve,
            "ptas.ptas_pack": ptas_solve,
            "ptas.ptas_pierce": ptas_solve,
        }.get(name)

    # -- patching ------------------------------------------------------
    def _rebind_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fatsep" or mod_name.startswith("fatsep.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._restore.append(
                        lambda m=mod, a=attr, v=original: setattr(m, a, v)
                    )

    def install(self) -> None:
        for module, attr in SPANNED:
            name = f"{_short(module)}.{attr}"
            original = getattr(module, attr)
            if isinstance(original, type):
                self._patch_init(name, original)
                continue
            self._rebind_everywhere(original, self._spanned(name, original, self._after(name)))
        for attr in COUNTED:
            original = getattr(geometry, attr)
            self._rebind_everywhere(original, self._counted(f"geometry.{attr}", original))

    def _patch_init(self, name: str, cls: type) -> None:
        sums = self.sums

        def after(args, kwargs, _):
            n = args[0].n
            sums[name + ".pairs"] += n * (n - 1) // 2

        original = cls.__dict__["__init__"]
        cls.__init__ = self._spanned(name, original, after)
        self._restore.append(lambda: setattr(cls, "__init__", original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results -------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics, named `<module>.<public name>.<stat>`."""
        c, s, sums = self.calls, self.self_s, self.sums

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: Dict[str, float] = {}
        for name in [
            "measure.IntersectionContext",
            "separator.separate",
            "separator.find_base_box",
            "separator.shell_sweep",
            "candidates.candidate_pierce_points",
            "candidates.coverage_masks",
            "measure.exact_small_pack",
            "measure.exact_small_pierce",
            "measure.greedy_pack",
            "measure.greedy_pierce",
            "measure.prune_dominated",
            "solver.solve_pack",
            "solver.solve_pierce",
        ]:
            out[name + ".calls"] = c[name]
            out[name + ".self_s"] = s[name]
        out["measure.IntersectionContext.pairs"] = sums["measure.IntersectionContext.pairs"]
        sep = "separator.separate"
        out[sep + ".distinct_ratio"] = ratio(len(self.distinct[sep]), c[sep])
        out[sep + ".unbalanced_ratio"] = ratio(sums[sep + ".unbalanced"], c[sep])
        out[sep + ".boundary_frac"] = ratio(sums[sep + ".boundary"], sums[sep + ".objects"])
        out["candidates.candidate_pierce_points.points"] = sums[
            "candidates.candidate_pierce_points.points"
        ]
        cov = "candidates.coverage_masks"
        out[cov + ".tests"] = sums[cov + ".tests"]
        out[cov + ".distinct_ratio"] = ratio(len(self.distinct[cov]), c[cov])
        for name in ["measure.exact_small_pack", "measure.exact_small_pierce"]:
            out[name + ".overflow_ratio"] = ratio(sums[name + ".overflow"], c[name])
            out[name + ".distinct_ratio"] = ratio(len(self.distinct[name]), c[name])
        out["solver.nodes"] = sums["solver.nodes"]
        out["solver.depth_max"] = sums["solver.depth_max"]
        out["ptas.ptas_pack.self_s"] = s["ptas.ptas_pack"]
        out["ptas.ptas_pierce.self_s"] = s["ptas.ptas_pierce"]
        out["ptas.discarded"] = sums["ptas.discarded"]
        for attr in COUNTED:
            out[f"geometry.{attr}.calls"] = c[f"geometry.{attr}"]
        return out

    def layer_calls(self, prefix: str) -> int:
        """Calls made into spanned functions whose name starts with `prefix`."""
        return sum(v for k, v in self.calls.items() if k.startswith(prefix))

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["id", "parent", "solve", "name", "start_s", "end_s"],
                    "spans": self.spans,
                },
                fh,
            )
