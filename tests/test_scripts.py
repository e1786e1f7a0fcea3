"""Smoke tests: the scripts under scripts/ still run against the package."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scaling_report_runs():
    proc = subprocess.run(
        [sys.executable, "scripts/scaling_report.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("label,n,d,family,solver")
