#!/usr/bin/env python3
"""Run every shipped problem file through the CLI and show the reports.

Each file in corpus/ (not corpus/bad/) is run by its kind: a k3period
file by `classify` and `tha --n 2`, a ksymplectic file by `ksympl`, a
path file by `perdom check-path`; one `bounds` call follows.  Exits 1
when any command does not exit 0.

Usage: python scripts/classify_corpus.py [--json]
"""

import json
import sys
from pathlib import Path

from hodgekit.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# the commands for each problem-file kind, the file's path in place of FILE
BY_KIND = {
    "k3period": [["classify", "FILE"], ["tha", "FILE", "--n", "2"]],
    "ksymplectic": [["ksympl", "FILE"]],
    "path": [["perdom", "check-path", "FILE"]],
}


def commands():
    out = []
    for path in sorted(CORPUS.glob("*.json")):
        kind = json.loads(path.read_text())["kind"]
        out += [[str(path) if a == "FILE" else a for a in cmd]
                for cmd in BY_KIND[kind]]
    out.append(["bounds", "--d", "20", "--e", "1", "--dim-h1", "2048"])
    return out


def run():
    extra = [a for a in sys.argv[1:] if a == "--json"]
    failures = 0
    for args in commands():
        print(f"$ hodgekit {' '.join(args)}")
        code = main(args + extra)
        if code != 0:
            failures += 1
        print()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
