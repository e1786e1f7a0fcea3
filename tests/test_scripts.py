"""Smoke tests: the scripts under scripts/ still run against the package."""
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_scaling_report(cwd):
    # Without PYTHONPATH, so the script has to find the package itself.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scaling_report.py")],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_scaling_report_runs():
    proc = run_scaling_report(ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("label,n,d,family,solver")
    rows = list(csv.DictReader(proc.stdout.split("\n\n")[0].splitlines()))
    assert len(rows) == 10
    assert all(r["node_law_ok"] == "1" for r in rows), rows


def test_scaling_report_runs_outside_the_repository(tmp_path):
    proc = run_scaling_report(tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("label,n,d,family,solver")


def answers_twice(cwd, workload):
    """Records of `scripts/answers.py` at seed 1, after checking that two runs
    print the same bytes."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, str(ROOT / "scripts" / "answers.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1"]
    runs = [subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
            for _ in range(2)]
    assert all(r.returncode == 0 for r in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    return [json.loads(line) for line in runs[0].stdout.splitlines()]


def test_answers_repeat_byte_for_byte(tmp_path):
    records = answers_twice(tmp_path, "ptas-large")
    assert {r["problem"] for r in records} == {"ptas_pack", "ptas_pierce"}
    assert all(r["value"] == len(r["witness"]) for r in records)
    for r in records:
        sep = r["separator"]
        ids = sorted(sep["inside"] + sep["outside"] + sep["boundary"])
        assert ids == list(range(len(ids))) and len(ids) >= 2
        assert len(sep["box"]) == len(sep["base_box"]) == 2 and sep["m_star"] >= 1.0
        total, inside, outside, boundary = sep["mu"]
        assert max(inside, outside, boundary) <= total


def test_pierce_answers_repeat_byte_for_byte(tmp_path):
    # The exact piercing solves build their tables from the candidate sweep.
    records = answers_twice(tmp_path, "pierce-exact")
    assert records and {r["problem"] for r in records} == {"solve_pierce"}
    assert all(r["value"] == len(r["witness"]) for r in records)


def test_interleave_times_both_trees(tmp_path):
    # One pair of processes, one pass each, this tree against itself, run
    # from outside the repository without PYTHONPATH.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "interleave.py"), "--other", str(ROOT),
         "--workload", "pierce-exact", "--seed", "1", "--pairs", "1", "--passes", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    pair, wins, medians = proc.stdout.splitlines()
    assert pair.startswith("pair 1: this ") and pair.endswith("this first")
    assert wins in ("this tree faster in 0 of 1 pairs", "this tree faster in 1 of 1 pairs")
    assert medians.startswith("median: this ")
    # Against itself, one pair's ratio is its own quartiles.
    ratio = medians.split("this/other per pair ")[1]
    assert ratio == f"{ratio.split()[0]} (quartiles {ratio.split()[0]}-{ratio.split()[0]})"


def test_mutants_script_lists_no_stale_mutant():
    # `--list` exits 1 when some mutant's text no longer occurs exactly once
    # in its file, so a refactor that moves mutated code fails here.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "mutants.py"), "--list"], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "STALE" not in proc.stdout


def test_mutants_script_kills_two_planted_faults():
    # Four of the listed faults, each in its own temporary copy of `src/`,
    # in the list's order: a centre candidate's face, the base-box
    # thresholds' slack, the boundary where context ids become given
    # positions and the subfamily a split reads.
    names = [
        "centre-strict-end",
        "base-box-slack-dropped",
        "greedy-pack-witness-unmapped",
        "base-box-corner-over-context",
    ]
    argv = [sys.executable, str(ROOT / "scripts" / "mutants.py")]
    for name in names:
        argv += ["--only", name]
    proc = subprocess.run(argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [line.split()[:2] for line in proc.stdout.splitlines()] == [["killed", n] for n in names]
