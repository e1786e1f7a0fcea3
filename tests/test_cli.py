import argparse
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fatsep.cli import _SHARED, EXIT_NODE_CAP, EXIT_OK, EXIT_SPEC_ERROR, _format_solution, build_parser, main
from fatsep.instances import read_instance
from fatsep.ptas import PtasConfig, ptas_pack, ptas_pierce
from fatsep.render import render_svg
from conftest import INSTANCE_FILES


def run_cli(args):
    """Run the CLI in-process, capturing nothing; returns the exit code."""
    return main(args)


def cli_bytes(args):
    """Run the CLI in a subprocess; returns (returncode, stdout bytes)."""
    proc = subprocess.run(
        [sys.executable, "-m", "fatsep.cli", *args],
        capture_output=True,
    )
    return proc.returncode, proc.stdout


@pytest.fixture
def inst_file(tmp_path):
    p = tmp_path / "inst.txt"
    rc = run_cli(["gen", "--family", "random", "--dim", "2", "--n", "10",
                  "--seed", "7", "--out", str(p)])
    assert rc == EXIT_OK
    return str(p)


# The shared flags each subcommand reads, and the other arguments a run
# needs; a shared flag it does not read is an argparse error.
SHARED = ("--in", "--out", "--seed", "--epsilon", "--dim", "--base-threshold", "--node-cap", "--svg")
SOLVE = ("--epsilon", "--base-threshold", "--node-cap")
READS = {
    "gen": (("--out", "--seed", "--dim", "--svg"), ["--family", "grid", "--k", "2"]),
    **{
        cmd: (("--in", "--out", "--svg", *SOLVE), [])
        for cmd in ("pack", "pierce", "ptas-pack", "ptas-pierce")
    },
    "separator": (("--in", "--out", "--svg", "--epsilon"), []),
    "oracle": (("--in", "--out"), ["--problem", "pack"]),
    "bench": (("--out", "--seed", "--dim", *SOLVE), ["--ks", "2"]),
    "render": (("--in", "--svg"), []),
}
IGNORED = [(cmd, flag) for cmd, (reads, _) in READS.items() for flag in SHARED if flag not in reads]


def flag_values(inst_file, tmp_path, cmd):
    """A valid value of every shared flag, for `cmd`."""
    return {
        "--in": inst_file,
        "--out": str(tmp_path / f"{cmd}.out"),
        "--seed": "3",
        "--epsilon": "0.5",
        "--dim": "2",
        "--base-threshold": "3",
        "--node-cap": "100000",
        "--svg": str(tmp_path / f"{cmd}.svg"),
    }


def command_line(cmd, values):
    """`cmd` with every shared flag it reads set from `values`."""
    reads, rest = READS[cmd]
    return [cmd, *rest, *(x for f in reads for x in (f, values[f]))]


def test_ignored_flags_are_the_listed_pairs():
    assert len(IGNORED) == 30


@pytest.mark.parametrize("cmd, flag", IGNORED)
def test_cli_refuses_flags_its_command_ignores(cmd, flag, inst_file, tmp_path, capsys):
    values = flag_values(inst_file, tmp_path, cmd)
    with pytest.raises(SystemExit) as exc:
        run_cli([*command_line(cmd, values), flag, values[flag]])
    assert exc.value.code == EXIT_SPEC_ERROR
    assert f"unrecognized arguments: {flag} " in capsys.readouterr().err


@pytest.mark.parametrize("cmd", list(READS))
def test_cli_takes_every_flag_its_command_reads(cmd, inst_file, tmp_path, capsys):
    values = flag_values(inst_file, tmp_path, cmd)
    reads = READS[cmd][0]
    assert run_cli(command_line(cmd, values)) == EXIT_OK
    for f in ("--out", "--svg"):
        if f in reads:
            assert Path(values[f]).read_text()
    # Its help lists these shared flags and no other.
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli([cmd, "--help"])
    assert exc.value.code == EXIT_OK
    assert set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) & set(SHARED) == set(reads)


def test_gen_writes_parseable_file(inst_file):
    inst = read_instance(inst_file)
    assert inst.n == 10 and inst.dim == 2 and inst.seed == 7


def test_pack_output_record(inst_file, tmp_path, capsys):
    out = tmp_path / "sol.txt"
    rc = run_cli(["pack", "--in", inst_file, "--out", str(out)])
    assert rc == EXIT_OK
    text = out.read_text()
    assert text.startswith("fatsep-solution v1\nproblem=pack\n")
    assert "optimal=true" in text
    # timing goes to stderr only, never the record
    assert "wall_time" not in text
    assert "wall_time" in capsys.readouterr().err


def test_pierce_and_oracle_agree(inst_file, tmp_path):
    sol = tmp_path / "p.txt"
    orc = tmp_path / "o.txt"
    assert run_cli(["pierce", "--in", inst_file, "--out", str(sol)]) == EXIT_OK
    assert run_cli(["oracle", "--problem", "pierce", "--in", inst_file,
                    "--out", str(orc)]) == EXIT_OK
    v_sol = next(l for l in sol.read_text().splitlines() if l.startswith("value="))
    v_orc = next(l for l in orc.read_text().splitlines() if l.startswith("value="))
    assert v_sol == v_orc


def test_separator_record(inst_file, tmp_path):
    out = tmp_path / "sep.txt"
    assert run_cli(["separator", "--in", inst_file, "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "fatsep-separator v1"
    assert any(l.startswith("mu_total=") for l in lines)


def test_parse_error_exit_code(inst_file, tmp_path, capsys):
    unopenable = str(tmp_path / "no-such-dir" / "f.txt")
    for args in (
        # A missing --in or --svg, and paths that cannot be opened.
        ["pack"],
        ["render", "--in", inst_file],
        ["pack", "--in", unopenable],
        ["pack", "--in", inst_file, "--out", unopenable],
        ["render", "--in", inst_file, "--svg", unopenable],
    ):
        rc = run_cli(args)
        assert rc == EXIT_SPEC_ERROR, args
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
    # Each instance file of the table exits 2 with one line naming its bad
    # line, or solves when it has none.
    for case, (text, bad_line) in INSTANCE_FILES.items():
        path = tmp_path / f"{case}.txt"
        path.write_text(text)
        rc = run_cli(["pack", "--in", str(path)])
        err = capsys.readouterr().err
        if bad_line is None:
            assert rc == EXIT_OK and not err.startswith("error"), case
        else:
            assert rc == EXIT_SPEC_ERROR, case
            assert err.startswith(f"error: line {bad_line}: ") and err.count("\n") == 1, (case, err)


def test_infinite_radius_exit_code(tmp_path, capsys):
    bad = tmp_path / "inf.txt"
    bad.write_text("fatsep v1 d=2 n=1\nball 0 0 inf\n")
    rc = run_cli(["pack", "--in", str(bad)])
    assert rc == EXIT_SPEC_ERROR
    assert "error:" in capsys.readouterr().err


def test_node_cap_exit_code(tmp_path, capsys):
    p = tmp_path / "dense.txt"
    assert run_cli(["gen", "--family", "cluster", "--dim", "2", "--clusters", "4",
                    "--cluster-size", "5", "--seed", "1", "--out", str(p)]) == EXIT_OK
    out = tmp_path / "sol.txt"
    rc = run_cli(["pack", "--in", str(p), "--out", str(out),
                  "--base-threshold", "1", "--node-cap", "3"])
    assert rc == EXIT_NODE_CAP
    assert "optimal=false" in out.read_text()  # best-so-far still emitted
    capsys.readouterr()


def test_bench_csv(tmp_path):
    out = tmp_path / "bench.csv"
    rc = run_cli(["bench", "--family", "grid", "--ks", "2,3", "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0].startswith("label,n,d,family,solver")
    assert len(lines) == 3


def test_bench_family_is_grid_only():
    # --ks lists grid sizes, so no other family can be benchmarked.
    with pytest.raises(SystemExit) as exc:
        run_cli(["bench", "--family", "random", "--ks", "2"])
    assert exc.value.code == EXIT_SPEC_ERROR


def test_render_svg(inst_file, tmp_path, capsys):
    # A separator figure comes from `separator --svg`; `render` draws the
    # instance alone and takes no overlay.
    svg = tmp_path / "fig.svg"
    rc = run_cli(["separator", "--in", inst_file, "--svg", str(svg)])
    assert rc == EXIT_OK
    text = svg.read_text()
    assert text.startswith("<svg") and 'class="separator"' in text
    plain = tmp_path / "inst.svg"
    assert run_cli(["render", "--in", inst_file, "--svg", str(plain)]) == EXIT_OK
    assert plain.read_text() == render_svg(read_instance(inst_file))
    with pytest.raises(SystemExit) as exc:
        run_cli(["render", "--in", inst_file, "--svg", str(plain), "--overlay", "pack"])
    assert exc.value.code == EXIT_SPEC_ERROR
    capsys.readouterr()


def test_readme_flag_table_matches_parser():
    # README's "command | shared flags" table lists, row by row, the shared
    # flags each subcommand declares, in the parser's order, and every
    # subcommand once.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("| command | shared flags |")
    table = {}
    for row in readme[start:].splitlines()[2:]:
        if not row.startswith("|"):
            break
        commands, flags = (re.findall(r"`([^`]*)`", cell) for cell in row.strip("|").split("|"))
        for cmd in commands:
            assert cmd not in table, cmd
            table[cmd] = flags[0].split()
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        cmd: [f for a in p._actions for f in a.option_strings if f in _SHARED]
        for cmd, p in subparsers.choices.items()
    }
    assert table == declared


def test_gen_rejects_a_meaningless_density(capsys):
    # The random family takes a finite positive density only.
    for value in ("-1", "0", "inf", "nan"):
        rc = run_cli(["gen", "--family", "random", "--n", "3", "--density", value])
        err = capsys.readouterr().err
        assert rc == EXIT_SPEC_ERROR, value
        assert err.startswith("error: ") and "density" in err and err.count("\n") == 1, (value, err)
    assert run_cli(["gen", "--family", "random", "--n", "3", "--density", "8"]) == EXIT_OK
    capsys.readouterr()


def test_byte_determinism_across_processes():
    args = ["gen", "--family", "random", "--dim", "2", "--n", "15", "--seed", "3"]
    rc1, out1 = cli_bytes(args)
    rc2, out2 = cli_bytes(args)
    assert rc1 == rc2 == 0 and out1 == out2 and out1


def test_ptas_subcommands(inst_file, tmp_path, capsys):
    for cmd in ("ptas-pack", "ptas-pierce"):
        out = tmp_path / f"{cmd}.txt"
        rc = run_cli([cmd, "--in", inst_file, "--epsilon", "0.5", "--out", str(out)])
        assert rc == EXIT_OK
        assert f"problem={cmd}" in out.read_text()
    capsys.readouterr()


def test_ptas_epsilon_above_half(tmp_path, capsys):
    # The PTAS takes any epsilon in (0, 1); its splits and leaves run at the
    # default separator epsilon, so the CLI answers as the API does.
    p = tmp_path / "big.txt"
    assert run_cli(["gen", "--family", "random", "--dim", "2", "--n", "80",
                    "--seed", "1", "--out", str(p)]) == EXIT_OK
    inst = read_instance(str(p))
    for cmd, scheme in (("ptas-pack", ptas_pack), ("ptas-pierce", ptas_pierce)):
        out = tmp_path / f"{cmd}.txt"
        rc = run_cli([cmd, "--in", str(p), "--epsilon", "0.75", "--out", str(out)])
        assert rc == EXIT_OK
        sol = scheme(inst, PtasConfig(epsilon=0.75))
        assert out.read_text() == _format_solution(cmd, sol)
    capsys.readouterr()


def test_ptas_exit_code_tracks_node_cap_only(tmp_path, capsys):
    # Dropping boundary objects makes the answer approximate (optimal=false)
    # but is no abort: the exit code stays 0.  The family is dense, so the
    # PTAS splits it: an independent dominance kernel would be solved exactly.
    p = tmp_path / "big.txt"
    assert run_cli(["gen", "--family", "random", "--dim", "2", "--n", "200",
                    "--seed", "0", "--density", "8", "--out", str(p)]) == EXIT_OK
    out = tmp_path / "sol.txt"
    rc = run_cli(["ptas-pack", "--in", str(p), "--epsilon", "0.5", "--out", str(out)])
    assert rc == EXIT_OK
    assert "optimal=false" in out.read_text()
    # An exact leaf that hits the node cap is an abort: exit code 3.  At the
    # default epsilon the whole kernel, which is not independent, is a leaf.
    rc = run_cli(["ptas-pack", "--in", str(p), "--base-threshold", "1",
                  "--node-cap", "3", "--out", str(out)])
    assert rc == EXIT_NODE_CAP
    assert "optimal=false" in out.read_text()
    rc = run_cli(["ptas-pierce", "--in", str(p), "--epsilon", "0.5", "--base-threshold", "1",
                  "--node-cap", "3", "--out", str(out)])
    assert rc == EXIT_NODE_CAP
    assert "optimal=false" in out.read_text()
    capsys.readouterr()


def test_out_of_range_values_exit_code(tmp_path, capsys):
    # Disjoint balls at +-1e160 have offsets that square past the float
    # range: every command refuses the file at parse time, naming the line,
    # instead of a wrong value, a traceback or a NaN.
    huge = tmp_path / "huge.txt"
    huge.write_text("fatsep v1 d=2 n=2\nball 1e160 0 1e155\nball -1e160 0 1e155\n")
    nan = tmp_path / "nan.txt"
    nan.write_text("fatsep v1 d=2 n=2\nbox 0 0 1 1\nbox nan 0 1 1\n")
    for path, line in ((huge, 2), (nan, 3)):
        for args in (["pack"], ["oracle", "--problem", "pack"], ["separator"]):
            rc = run_cli([*args, "--in", str(path)])
            assert rc == EXIT_SPEC_ERROR, (path, args)
            err = capsys.readouterr().err
            assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1, (args, err)
    # At the bound the same two balls read, solve and split.
    edge = tmp_path / "edge.txt"
    edge.write_text("fatsep v1 d=2 n=2\nball 1e150 0 1e145\nball -1e150 0 1e145\n")
    for args in (["pack"], ["oracle", "--problem", "pack"]):
        assert run_cli([*args, "--in", str(edge)]) == EXIT_OK
        assert "value=2\n" in capsys.readouterr().out
    assert run_cli(["separator", "--in", str(edge)]) == EXIT_OK
    assert "mu_total=2\n" in capsys.readouterr().out
