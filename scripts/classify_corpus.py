#!/usr/bin/env python3
"""Run every shipped problem file through the CLI and show the reports.

Usage: python scripts/classify_corpus.py [--json]
"""

import sys
from pathlib import Path

from hodgekit.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

COMMANDS = [
    ["classify", str(CORPUS / "qi_period.json")],
    ["classify", str(CORPUS / "sqrt2i_period.json")],
    ["classify", str(CORPUS / "quartic_incompatible_period.json")],
    ["tha", str(CORPUS / "qi_period.json"), "--n", "3"],
    ["tha", str(CORPUS / "sqrt2i_period.json"), "--n", "2"],
    ["ksympl", str(CORPUS / "quaternion3.json")],
    ["ksympl", str(CORPUS / "quaternion3_doubled.json")],
    ["bounds", "--d", "20", "--e", "1", "--dim-h1", "2048"],
    ["perdom", "check-path", str(CORPUS / "circle_path.json")],
]


def run():
    extra = [a for a in sys.argv[1:] if a == "--json"]
    failures = 0
    for args in COMMANDS:
        print(f"$ hodgekit {' '.join(args)}")
        code = main(args + extra)
        if code != 0:
            failures += 1
        print()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(run())
