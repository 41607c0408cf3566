"""The scripts under scripts/ import hodgekit by name, and nothing else
runs them: each is run once here, on small inputs, as its own process.
scripts/bench_pairs.py runs the benchmark, so only its pair counting and
its argument check are tested, in-process."""

import importlib.util
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
    if argv[0] == "classify_corpus.py":
        # every good problem file is run, by the kind it declares
        ran = {word for line in proc.stdout.splitlines()
               if line.startswith("$ hodgekit ") for word in line.split()}
        assert {str(p) for p in (ROOT / "corpus").glob("*.json")} <= ran


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ok_ops_ratio", "unit": "ratio", "better": "higher",
     "bound": 0.01},
]}


def test_bench_pairs_compare_counts_pairs_by_direction():
    # wall_s: the change is lower in pairs 1, 2 and 5, higher in pair 3
    # and tied in pair 4; ok_ops_ratio: the change is higher in pair 1
    # only, and the other pairs tie
    bench = _load_script("bench_pairs.py")
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 1.5, 3.5, 4.0, 4.5]
    runs = {"parent": [{"wall_s": w, "ok_ops_ratio": 0.9 if i == 0 else 1.0}
                       for i, w in enumerate(parent)],
            "change": [{"wall_s": w, "ok_ops_ratio": 1.0} for w in change]}
    out = bench.compare(runs, BENCH_SPEC)
    assert list(out) == ["wall_s", "ok_ops_ratio"]
    wall, ok = out["wall_s"], out["ok_ops_ratio"]
    assert (wall["unit"], wall["better"]) == ("s", "lower")
    assert wall["pairs_won"] == {"parent": 1, "change": 3}
    assert ok["pairs_won"] == {"parent": 0, "change": 1}
    # inclusive quartiles of 1..5 are 2, 3, 4 (exclusive ones 1.5, 3, 4.5)
    assert wall["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert wall["change"] == {"median": 3.5, "q1": 1.5, "q3": 4.0}


def test_bench_pairs_rejects_one_pair_before_running(monkeypatch, capsys):
    bench = _load_script("bench_pairs.py")
    ran = []
    monkeypatch.setattr(bench, "run_once", lambda *args: ran.append(args))
    with pytest.raises(SystemExit) as exc:
        bench.main(["parent", "change", "--workload", "cm_ladder",
                    "--seed", "7", "--pairs", "1"])
    assert exc.value.code == 2
    assert ran == []
    assert "--pairs must be at least 2" in capsys.readouterr().err
