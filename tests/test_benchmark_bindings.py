"""The benchmark under perfbench/ binds hodgekit by name: its tracer
patches the (module, attribute) pairs in SPANS and COUNTED, and its
child process imports names from hodgekit.  Every one must still exist,
or `--trace 1` and the algebra workload break only when they run."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _tracer_bindings():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    pairs = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTED")
                for t in node.targets):
            pairs += [(mod, attr)
                      for mod, attr, _ in ast.literal_eval(node.value)]
    return pairs


def _child_bindings():
    pairs = []
    for node in ast.walk(ast.parse((PERFBENCH / "child.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "hodgekit"):
            pairs += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            pairs += [(alias.name, None) for alias in node.names
                      if alias.name.startswith("hodgekit")]
    return pairs


def test_bindings_are_found():
    assert len(_tracer_bindings()) >= 28
    assert ("hodgekit.symalg", "power_top") in _child_bindings()


BINDINGS = list(dict.fromkeys(_tracer_bindings() + _child_bindings()))


@pytest.mark.parametrize("module, attr", BINDINGS)
def test_benchmark_binding_exists(module, attr):
    mod = importlib.import_module(module)
    assert attr is None or hasattr(mod, attr), f"{module}.{attr} is gone"


def test_tracer_install_patches_what_the_child_imports():
    # install() also patches class attributes (Matrix.__mul__,
    # FieldElement.__mul__, ComplexEmbedding.eval_box) that the
    # (module, attribute) pairs above do not name
    modules = sorted({module for module, _ in _child_bindings()})
    code = "".join(f"import {m}\n" for m in modules)
    code += "from tracer import Tracer\nTracer().install()\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(PERFBENCH)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
