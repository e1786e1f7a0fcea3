"""Benchmark harness: run solver suites, emit CSV with node-law checks.

Rows are sorted by (label, solver) before emission, so running entries in
any order (or in parallel) never changes the output bytes.  Reruns of the
same suite are byte-identical except for the wall_time column.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import List, Optional, Sequence

from .calibration import NODE_LAW_EXPONENT, node_law_bound
from .instances import Instance, gen_instance
from .ptas import PtasConfig, ptas_pack, ptas_pierce
from .solver import Solution, SolveConfig, solve_pack, solve_pierce


@dataclass
class BenchRecord:
    label: str
    n: int
    d: int
    family: str
    solver: str
    value: int
    nodes: int
    depth: int
    wall_time: float
    node_law_bound: float
    node_law_ok: bool
    aborted: bool
    config_digest: str


CSV_COLUMNS = [f.name for f in fields(BenchRecord)]
# How `to_csv` writes a column's cells; the other columns' are written as they are.
_CELL = {"wall_time": "{:.6f}".format, "node_law_bound": "{:.6g}".format, "node_law_ok": int, "aborted": int}


def config_digest(cfg: SolveConfig) -> str:
    payload = json.dumps(asdict(cfg), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def run_solver(solver: str, inst: Instance, cfg: SolveConfig) -> Solution:
    """Run the solver named "pack", "pierce", "ptas-pack" or "ptas-pierce".
    The PTAS runs at `cfg.epsilon`, in (0, 1), and its splits and exact
    leaves with `cfg` at the default separator epsilon of `SolveConfig`, as
    under `PtasConfig(epsilon=e)` alone."""
    if solver == "pack":
        return solve_pack(inst, cfg)
    if solver == "pierce":
        return solve_pierce(inst, cfg)
    if solver in ("ptas-pack", "ptas-pierce"):
        ptas_cfg = PtasConfig(epsilon=cfg.epsilon, solve=replace(cfg, epsilon=SolveConfig.epsilon))
        return (ptas_pack if solver == "ptas-pack" else ptas_pierce)(inst, ptas_cfg)
    raise ValueError(f"unknown solver {solver!r}")


def _run_one(inst: Instance, family: str, solver: str, cfg: SolveConfig) -> BenchRecord:
    sol = run_solver(solver, inst, cfg)
    bound = node_law_bound(inst.n, sol.value, inst.dim)
    return BenchRecord(
        label=inst.label,
        n=inst.n,
        d=inst.dim,
        family=family,
        solver=solver,
        value=sol.value,
        nodes=sol.nodes,
        depth=sol.depth,
        wall_time=sol.wall_time,
        node_law_bound=bound,
        node_law_ok=sol.nodes <= bound,
        aborted=sol.aborted,
        config_digest=config_digest(cfg),
    )


def run_bench(
    suite: Sequence[dict], out_path: Optional[str] = None
) -> List[BenchRecord]:
    """Run a suite of {instance spec or Instance, solvers, config} entries.

    Entry keys: either "instance" (an Instance) or generator fields
    ("family", "d", plus gen_instance kwargs); "solvers" (list, default
    ["pack"]); optional "config" dict of SolveConfig overrides.
    """
    records: List[BenchRecord] = []
    for entry in suite:
        if "instance" in entry:
            inst = entry["instance"]
            family = entry.get("family", "custom")
        else:
            gen_kwargs = {
                key: entry[key]
                for key in ("shape", "n", "k", "seed", "density", "clusters", "cluster_size", "label")
                if key in entry
            }
            inst = gen_instance(entry["family"], entry["d"], **gen_kwargs)
            family = entry["family"]
        cfg = SolveConfig(**entry.get("config", {}))
        for solver in entry.get("solvers", ["pack"]):
            records.append(_run_one(inst, family, solver, cfg))
    records.sort(key=lambda r: (r.label, r.solver))
    text = to_csv(records)
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    return records


def to_csv(records: Sequence[BenchRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(_CELL.get(c, str)(getattr(r, c)) for c in CSV_COLUMNS)
    return buf.getvalue()
