"""Command line interface.

Each subcommand takes only the shared flags (`_SHARED`) it reads.  Exit
codes: 0 success, 2 parse/spec error (a missing --in or --svg, or a path
that cannot be opened: one `error:` line on stderr; a flag the subcommand
does not take: argparse's usage and error), 3 node-cap
abort (the best-so-far record is still written).  Timings never go into
--out files, so every non-timing output is byte-reproducible.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional

from .bench import run_bench, run_solver, to_csv
from .instances import Instance, ParseError, gen_instance, read_instance, write_instance
from .oracle import OracleSizeError, brute_pack, brute_pierce
from .render import render_svg
from .separator import SeparatorConfig, separate
from .solver import SolveConfig

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_NODE_CAP = 3


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _format_point(p) -> str:
    return ",".join(map(repr, p))


def _format_solution(problem: str, sol) -> str:
    if sol.problem == "pack":
        witness = " ".join(str(i) for i in sol.witness)
    else:
        witness = " ".join(map(_format_point, sol.witness))
    lines = [
        "fatsep-solution v1",
        f"problem={problem}",
        f"value={sol.value}",
        f"witness={witness}",
        f"nodes={sol.nodes}",
        f"depth={sol.depth}",
        f"optimal={'true' if sol.optimal else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def _format_separator(sep) -> str:
    def fmt_box(b):
        return " ".join(repr(c) for c in b.low + b.high)

    lines = [
        "fatsep-separator v1",
        f"box={fmt_box(sep.box)}",
        f"base_box={fmt_box(sep.base_box)}",
        f"m_star={sep.m_star!r}",
        f"inside={' '.join(map(str, sep.inside_ids))}",
        f"outside={' '.join(map(str, sep.outside_ids))}",
        f"boundary={' '.join(map(str, sep.boundary_ids))}",
        f"mu_total={sep.mu_total.value}",
        f"mu_inside={sep.mu_inside.value}",
        f"mu_outside={sep.mu_outside.value}",
        f"mu_boundary={sep.mu_boundary.value}",
        f"degenerate={'true' if sep.degenerate else 'false'}",
    ]
    return "\n".join(lines) + "\n"


# The shared flags; each subcommand declares those its `_dispatch` branch reads.
_SHARED = {
    "--in": dict(dest="inp", help="instance file to read"),
    "--out": dict(help="output file (stdout when omitted)"),
    "--seed": dict(type=int, default=0),
    "--epsilon": dict(type=float, default=0.25),
    "--dim": dict(type=int, default=2),
    "--base-threshold": dict(type=int, default=12),
    "--node-cap": dict(type=int, default=10**8),
    "--svg": dict(help="also write an SVG figure (d=2 only)"),
}
# The flags `_solve_config` reads.
_SOLVE = ("--epsilon", "--base-threshold", "--node-cap")


def _add_shared(p: argparse.ArgumentParser, *flags: str):
    for flag in flags:
        p.add_argument(flag, **_SHARED[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatsep",
        description="Packing and piercing of fat objects via box separators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    _add_shared(p, "--out", "--seed", "--dim", "--svg")
    p.add_argument("--family", required=True, choices=["grid", "random", "cluster"])
    p.add_argument("--shape", default="ball", choices=["ball", "box"])
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--clusters", type=int, default=0)
    p.add_argument("--cluster-size", type=int, default=0)
    p.add_argument("--label", default="")

    for name in ("pack", "pierce", "ptas-pack", "ptas-pierce"):
        p = sub.add_parser(name, help=f"run the {name} solver")
        _add_shared(p, "--in", "--out", "--svg", *_SOLVE)

    p = sub.add_parser("separator", help="compute a separator box")
    _add_shared(p, "--in", "--out", "--svg", "--epsilon")

    p = sub.add_parser("oracle", help="brute-force reference value")
    _add_shared(p, "--in", "--out")
    p.add_argument("--problem", required=True, choices=["pack", "pierce"])

    p = sub.add_parser("bench", help="run a benchmark suite, emit CSV")
    _add_shared(p, "--out", "--seed", "--dim", *_SOLVE)
    p.add_argument("--family", default="grid", choices=["grid"])
    p.add_argument("--shape", default="ball", choices=["ball", "box"])
    p.add_argument("--ks", default="2,3,4,5", help="comma-separated grid k values")
    p.add_argument("--solvers", default="pack", help="comma-separated solver names")

    p = sub.add_parser("render", help="render an instance to SVG")
    _add_shared(p, "--in", "--svg")
    return parser


def _load(args) -> Instance:
    if not args.inp:
        raise ValueError("--in is required for this command")
    return read_instance(args.inp)


def _solve_config(args) -> SolveConfig:
    return SolveConfig(
        base_threshold=args.base_threshold,
        epsilon=args.epsilon,
        node_cap=args.node_cap,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, OracleSizeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "gen":
        # Its flags other than --out and --svg are `gen_instance`'s parameters.
        params = {k: v for k, v in vars(args).items() if k not in ("command", "out", "svg", "dim")}
        inst = gen_instance(d=args.dim, **params)
        if args.out:
            write_instance(inst, args.out)
        else:
            from .instances import format_instance

            sys.stdout.write(format_instance(inst))
        if args.svg:
            render_svg(inst, None, args.svg)
        return EXIT_OK

    if cmd in ("pack", "pierce", "ptas-pack", "ptas-pierce"):
        inst = _load(args)
        sol = run_solver(cmd, inst, _solve_config(args))
        _emit(_format_solution(cmd, sol), args.out)
        print(f"wall_time={sol.wall_time:.6f}s", file=sys.stderr)
        if args.svg:
            render_svg(inst, sol, args.svg)
        return EXIT_NODE_CAP if sol.aborted else EXIT_OK

    if cmd == "separator":
        inst = _load(args)
        sep = separate(list(inst.objects), SeparatorConfig(epsilon=args.epsilon))
        _emit(_format_separator(sep), args.out)
        if args.svg:
            render_svg(inst, sep, args.svg)
        return EXIT_OK

    if cmd == "oracle":
        inst = _load(args)
        if args.problem == "pack":
            res = brute_pack(inst)
            witness = " ".join(map(str, res.witness))
        else:
            res = brute_pierce(inst)
            witness = " ".join(map(_format_point, res.witness))
        _emit(
            f"fatsep-oracle v1\nproblem={args.problem}\nvalue={res.value}\n"
            f"witness={witness}\nmethod={res.method}\n",
            args.out,
        )
        return EXIT_OK

    if cmd == "bench":
        ks = [int(x) for x in args.ks.split(",") if x]
        solvers = [s.strip() for s in args.solvers.split(",") if s.strip()]
        suite = [
            {
                "family": args.family,
                "d": args.dim,
                "shape": args.shape,
                "k": k,
                "seed": args.seed,
                "solvers": solvers,
                "config": vars(_solve_config(args)),
            }
            for k in ks
        ]
        records = run_bench(suite)
        _emit(to_csv(records), args.out)
        return EXIT_OK

    if cmd == "render":
        inst = _load(args)
        if not args.svg:
            raise ValueError("render requires --svg PATH")
        render_svg(inst, None, args.svg)
        return EXIT_OK

    raise SystemExit(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
