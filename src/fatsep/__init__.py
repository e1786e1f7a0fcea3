"""Packing and piercing of fat objects via measure-balanced box separators."""

from .candidates import candidate_pierce_points
from .geometry import (
    AxisBox,
    Ball,
    BoxRegion,
    RegionClass,
    center,
    classify,
    intersects,
    magnify,
    size,
)
from .instances import Instance, gen_instance, read_instance, write_instance
from .measure import (
    OVERFLOW,
    MeasureEstimate,
    exact_small_pack,
    exact_small_pierce,
    greedy_pack,
    greedy_pierce,
)
from .oracle import OracleResult, brute_pack, brute_pierce, fine_grid_pierce
from .ptas import PtasConfig, ptas_pack, ptas_pierce
from .separator import SeparatorConfig, SeparatorResult, find_base_box, separate, shell_sweep
from .solver import Solution, SolveConfig, solve_pack, solve_pierce

__all__ = [
    "AxisBox",
    "Ball",
    "BoxRegion",
    "Instance",
    "MeasureEstimate",
    "OVERFLOW",
    "OracleResult",
    "PtasConfig",
    "RegionClass",
    "SeparatorConfig",
    "SeparatorResult",
    "Solution",
    "SolveConfig",
    "brute_pack",
    "brute_pierce",
    "candidate_pierce_points",
    "center",
    "classify",
    "exact_small_pack",
    "exact_small_pierce",
    "find_base_box",
    "fine_grid_pierce",
    "gen_instance",
    "greedy_pack",
    "greedy_pierce",
    "intersects",
    "magnify",
    "ptas_pack",
    "ptas_pierce",
    "read_instance",
    "separate",
    "shell_sweep",
    "size",
    "solve_pack",
    "solve_pierce",
    "write_instance",
]
