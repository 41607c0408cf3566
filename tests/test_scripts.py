"""The scripts under scripts/ import hodgekit by name, and nothing else
runs them: each is run once here, on small inputs, as its own process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = [
    ["classify_corpus.py", "--json"],
    ["harmonic_dimension_table.py", "--max-dim", "4", "--max-deg", "4"],
    ["nondegeneracy_sweep.py", "--trials", "5", "--max-dim", "4",
     "--max-top", "3"],
]


@pytest.mark.parametrize("argv", SCRIPTS, ids=lambda argv: argv[0])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
