"""The scripts under demos/ run to completion against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def check_phase_diagram(stdout):
    # both curvature peaks sit on the printed closed-form boundaries
    peaks = re.search(r"peaks \(([^)]*)\)", stdout).group(1).split(",")
    bounds = re.search(r"closed-form boundaries:\s*b = (.*)", stdout).group(1).split(",")
    assert len(peaks) == len(bounds) == 2
    for peak, bound in zip(peaks, bounds):
        assert abs(float(peak) - float(bound)) <= 5e-3


CHECKS = {"phase_diagram.py": check_phase_diagram}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,  # entanglement_maps.py writes its CSV into the working directory
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    CHECKS.get(demo.name, lambda stdout: None)(proc.stdout)
