"""The study scripts under ``scripts/`` import, parse arguments and run."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import liftlab

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"
SCRIPTS = sorted(SCRIPT_DIR.glob("*.py"))


def run_script(script, *args):
    # the child imports the same liftlab as this process
    package_root = str(Path(liftlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_help_exits_zero(script):
    proc = run_script(script, "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


@pytest.mark.parametrize("name, args, rows", [
    # one row per grid size, each through ``determined_nodes``
    ("intertwining_study.py", ("--ns", "16", "--t-end", "0.01"), {r"^ +16 ": 1}),
    # one row per pair of step sizes, then one per grid size of the spatial study
    ("convergence_study.py", ("--n", "16", "--t-end", "0.004"),
     {r"^  \|u\(dt=": 2, r"^  n= *\d+: ": 3}),
    # K = z reads 6 stencils: two flat-shift differences and six wrap
    # planes each, and 75 calls in all
    ("rhs_profile.py", ("--n", "8", "--repeats", "2"),
     {r"^shifted difference +12 ": 1, r"^wrap plane +36 ": 1, r"^sum +75 ": 1,
      r"^whole RHS ": 1}),
    # vlasov-momentum, the lift of X_h, reads 4 stencils: 50 calls in all
    ("rhs_profile.py", ("--model", "vlasov-momentum", "--phi", "cos(q)",
                        "--init", "cos(q)*sin(p);sin(q)+cos(p)", "--n", "8", "--repeats", "2"),
     {r"^shifted difference +8 ": 1, r"^wrap plane +24 ": 1, r"^sum +50 ": 1,
      r"^whole RHS ": 1}),
])
def test_runs_at_a_tiny_size(name, args, rows):
    proc = run_script(SCRIPT_DIR / name, *args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for pattern, count in rows.items():
        assert sum(bool(re.match(pattern, line)) for line in lines) == count, proc.stdout
