"""Golden CLI outputs: every command in CASES is replayed in-process
through `cli.main` and its exit code and `--json` bytes must equal the
recording in tests/golden/cli.json.

Re-record (only when an output change is intended and reviewed) with
    PYTHONPATH=src python3 tests/test_golden.py
run from the repository root."""

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hodgekit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"

PERIODS = ("qi_period.json", "sqrt2i_period.json",
           "quartic_incompatible_period.json", "cm_d8_basis_period.json",
           "totally_real_sqrt2_period.json")
BAD = {
    "unknown_version.json": "classify", "unknown_kind.json": "classify",
    "float_number.json": "perdom", "nonsymmetric_gram.json": "classify",
    "reducible_field.json": "classify", "nonmonic_field.json": "classify",
    "degree_too_large.json": "classify", "isotropy_fails.json": "classify",
    "positivity_fails.json": "classify", "wrong_signature.json": "classify",
    "oversized_ksympl.json": "ksympl", "dependent_psis.json": "ksympl",
    "nonantisymmetric_psi.json": "ksympl", "nonisotropic_path.json": "perdom",
    "k1_symplectic.json": "ksympl", "omega_wrong_length.json": "classify",
    "huge_number.json": "classify",
    # over Q[x]/(x^16 - 2 (a x - 1)^2), a = 10^12 + 1, whose two roots
    # near 1/a are about a^-9 apart; a real embedding fails positivity
    "mignotte_positivity_fails.json": "classify",
    # Pf = (w1^2 - w2^2 - w3^2)^2, but rank 6, not 4, on the quadric
    "wrong_rank_on_quadric.json": "ksympl",
}


def _file_command(command, path):
    return ["perdom", "check-path", path] if command == "perdom" \
        else [command, path]


def _cases():
    cases = []
    for name in PERIODS:
        path = f"corpus/{name}"
        cases.append(["classify", path])
        cases += [["tha", path, "--n", str(n)] for n in (1, 2, 3)]
    cases += [["classify", "corpus/qi_period.json", "--seed", "3"],
              ["ksympl", "corpus/quaternion3.json"],
              ["ksympl", "corpus/quaternion3_doubled.json"],
              ["perdom", "check-path", "corpus/circle_path.json"]]
    cases += [["bounds", *args.split()] for args in (
        "--d 20 --e 1", "--d 20 --e 1 --dim-h1 2048", "--d 3 --dim-h1 4",
        "--d 3 --dim-h1 5", "--d 0", "--d -1", "--d 20 --e 0",
        "--d 20 --dim-h1 -1", "--d 1000", "--d 1001", "--d 20 --e 1000",
        "--d 20 --e 1001")]
    for name, command in BAD.items():
        path = f"corpus/bad/{name}"
        cases.append(_file_command(command, path))
        if command == "classify":
            cases.append(["tha", path, "--n", "2"])
    # wrong file kinds, argument checks ahead of loading, unreadable files
    cases += [["classify", "corpus/quaternion3.json"],
              ["tha", "corpus/circle_path.json", "--n", "1"],
              ["tha", "corpus/bad/unknown_kind.json", "--n", "0"],
              ["tha", "corpus/qi_period.json", "--n", "1000"],
              ["tha", "corpus/qi_period.json", "--n", "1001"],
              ["ksympl", "corpus/qi_period.json"],
              ["perdom", "check-path", "corpus/qi_period.json"],
              ["classify", "corpus/missing.json"],
              ["classify", "corpus/qi_period.json", "--check",
               "corpus/missing.json"],
              ["tha", "corpus/missing.json", "--n", "1"]]
    # usage errors: a missing file, a bad number, flags the command lacks
    cases += [["classify"], ["bounds", "--d", "x"],
              ["bounds", "--d", "3", "--seed", "1"],
              ["classify", "corpus/qi_period.json", "--precision-start", "64"]]
    # argparse's contract: --opt=value, the last of a repeated option, a
    # missing value, a missing or unknown command, a surplus positional
    cases += [["bounds", "--d=3"],
              ["tha", "corpus/qi_period.json", "--n", "2", "--n", "3"],
              ["bounds", "--d", "3", "--e"], ["perdom"], [], ["bogus"],
              ["classify", "corpus/qi_period.json", "extra"]]
    return [argv + ["--json"] for argv in cases]


def _run(argv):
    out = io.BytesIO()
    wrapper = io.TextIOWrapper(out, encoding="utf-8")
    with redirect_stdout(wrapper):
        code = main(argv)
    wrapper.flush()
    return code, out.getvalue()


def _recorded():
    return {" ".join(c["argv"]): c for c in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_golden_cli_output(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    case = _recorded()[" ".join(argv)]
    code, out = _run(argv)
    assert code == case["exit"]
    assert out == case["stdout"].encode()


def test_golden_covers_every_corpus_file():
    named = {arg for argv in _cases() for arg in argv}
    files = {str(p.relative_to(ROOT)) for p in (ROOT / "corpus").rglob("*.json")}
    assert files - named == set()


def test_every_bad_file_has_a_bad_case():
    files = {p.name for p in (ROOT / "corpus" / "bad").glob("*.json")}
    assert files == set(BAD)


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    records = []
    for argv in _cases():
        code, out = _run(argv)
        records.append({"argv": argv, "exit": code, "stdout": out.decode()})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    print(f"recorded {len(records)} cases to {GOLDEN}", file=sys.stderr)
