#!/usr/bin/env python3
"""List the lines of src/hodgekit that a pytest run never executes.

Runs pytest in this process under a sys.settrace hook that records the
lines executed in the files under src/hodgekit, then prints each
executable line that never ran as `path:line  source`, and a count.
def, class and import lines and docstrings are not listed: they run, or
stand, when the module is imported.  Processes the tests spawn are not
traced.  Exits with pytest's exit code.

Usage: python scripts/line_census.py [pytest args]
"""

import ast
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hodgekit"


def executable_lines(source, filename):
    """The line numbers that carry bytecode, in the module and in every
    code object nested in it."""
    lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def skipped_lines(tree):
    """The lines of imports, of def and class headers (decorators and
    signatures included) and of docstrings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(range(node.lineno, node.end_lineno + 1))
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if not isinstance(node, ast.Module):
            start = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            out.update(range(start, body[0].lineno))
        first = body[0] if body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            out.update(range(first.lineno, first.end_lineno + 1))
    return out


def run(args):
    """pytest's exit code and the executed lines of each traced file."""
    prefix = str(PACKAGE) + "/"
    hits, local_tracers = {}, {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        local = local_tracers.get(filename)
        if local is None and filename.startswith(prefix):
            lines = hits.setdefault(filename, set())

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local
            local_tracers[filename] = local
        return local

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def misses(hits):
    """(path, line, source) for each executable line that never ran."""
    out = []
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        lines = (executable_lines(source, str(path))
                 - skipped_lines(ast.parse(source))
                 - hits.get(str(path), set()))
        rel = path.relative_to(ROOT)
        out += [(rel, n, text[n - 1].strip()) for n in sorted(lines)]
    return out


def main(args):
    code, hits = run(args)
    missed = misses(hits)
    for rel, n, line in missed:
        print(f"{rel}:{n}  {line}")
    print(f"{len(missed)} executable lines of {PACKAGE.relative_to(ROOT)} "
          f"never ran")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
