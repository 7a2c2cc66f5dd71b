"""Smoke runs of the scripts under scripts/ at tiny sizes: each must exit 0.
They run in a temporary directory, where their default --out-dir lands."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qqlab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
RUNS = {
    "inequality_sweeps.py": ["--trials", "5"],
    "adversary_grid.py": ["--trials", "1", "--widths", "2", "--iterations", "2"],
    "census_vs_montecarlo.py": ["--trials", "50"],
    "line_count.py": [],
}


@pytest.mark.parametrize("script", sorted(RUNS))
def test_script_exits_zero(script, tmp_path):
    src = Path(qqlab.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "QQLAB_QUBIT_CAP"}
    env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
    done = subprocess.run([sys.executable, str(SCRIPTS / script), *RUNS[script]],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_package_stays_within_its_line_budget():
    # ROADMAP's standing rule: src/qqlab holds at most 2,597 physical lines
    done = subprocess.run([sys.executable, str(SCRIPTS / "line_count.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    total = done.stdout.splitlines()[-1].split()
    assert total[0] == "total"
    assert int(total[1]) <= 2597, done.stdout
