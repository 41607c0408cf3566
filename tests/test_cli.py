"""Tests for the command-line front end: file parsing, reports,
deterministic machine output, and error exit codes."""

import importlib.util
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hodgekit.cli import SYNTAX, _level, _ratio, main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def run_cli(args, hashseed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run([sys.executable, "-m", "hodgekit.cli", *args],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout


def run_inproc(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_classify_gaussian(capsys):
    code, out = run_inproc(["classify", str(CORPUS / "qi_period.json"),
                            "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    section = doc["sections"]["endomorphism_field"]
    assert doc["sections"]["transcendental_lattice"]["dim_t"] == 2
    assert section["e"] == 2
    assert section["classification"] == "CM"
    assert section["mt_family"] == "U_E"
    assert section["mt_rank"] == 1
    assert section["hodge_classes_dim"] == 2
    assert section["dim_fixed_subalgebra"] == 1


def test_classify_sqrt2i(capsys):
    code, out = run_inproc(["classify", str(CORPUS / "sqrt2i_period.json"),
                            "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    section = doc["sections"]["endomorphism_field"]
    assert doc["sections"]["transcendental_lattice"]["dim_t"] == 3
    assert section["e"] == 1
    assert section["classification"] == "TotallyReal"
    assert section["mt_family"] == "SO_E"
    assert section["mt_rank"] == 3
    assert section["hodge_classes_dim"] == 1


def test_classify_incompatible_quartic(capsys):
    # L = F keeps the period line, but only a quadratic subfield keeps
    # T^{1,1} for this form: E has degree 2, not 4
    code, out = run_inproc(["classify",
                            str(CORPUS / "quartic_incompatible_period.json"),
                            "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    section = doc["sections"]["endomorphism_field"]
    assert doc["sections"]["transcendental_lattice"]["dim_t"] == 4
    assert section["e"] == 2
    assert section["classification"] == "CM"
    assert section["primitive_minpoly"] == ["1/2", "0", "1"]
    assert section["dim_fixed_subalgebra"] == 1
    assert section["mt_family"] == "U_E"
    assert section["mt_rank"] == 2
    assert section["hodge_classes_dim"] == 2


def test_classify_cm_degree_16_at_rank_22(tmp_path, capsys):
    # the advertised caps together: the benchmark's known-answer CM
    # recipe over Q(zeta_32), x^16 + 1, in a lattice of rank 22; the
    # process takes about 0.2 s
    spec = importlib.util.spec_from_file_location(
        "factory", ROOT / "perfbench" / "factory.py")
    factory = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(factory)
    doc, _ = factory.cm_problem(16)
    path = tmp_path / "cm_d16.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    code, out = run_inproc(["classify", str(path), "--json"], capsys)
    assert time.monotonic() - start < 10
    assert code == 0
    doc = json.loads(out)
    section = doc["sections"]["endomorphism_field"]
    assert doc["sections"]["space"] == {"dim_v": 22, "field_degree": 16}
    assert section["e"] == 16
    assert section["classification"] == "CM"
    assert section["mt_family"] == "U_E"
    assert section["mt_rank"] == 1
    assert section["hodge_classes_dim"] == 16


def test_tha_dims(capsys):
    code, out = run_inproc(["tha", str(CORPUS / "qi_period.json"),
                            "--n", "3", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["sections"]["transcendental_hodge_algebra"]["graded_dims_q"] == \
        [2, 2, 2, 2]
    code, out = run_inproc(["tha", str(CORPUS / "sqrt2i_period.json"),
                            "--n", "2", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["sections"]["transcendental_hodge_algebra"]["graded_dims_q"] == \
        [1, 3, 5]


def test_tha_rank_below_three_over_a_totally_real_field_exits_2(
        monkeypatch, capsys):
    # no validated period reaches it: the rank over a totally real E is at
    # least 3 (Zarhin 1983), so the classification is a stand-in
    from types import SimpleNamespace

    import hodgekit.cli as cli

    stub = SimpleNamespace(classification="TotallyReal", e=2,
                           mt=SimpleNamespace(rank=2))
    monkeypatch.setattr(cli, "endomorphism_field", lambda h: stub)
    code, out = run_inproc(["tha", str(CORPUS / "totally_real_sqrt2_period.json"),
                            "--n", "2", "--json"], capsys)
    assert code == 2
    error = json.loads(out)["sections"]["error"]
    assert error == {"class": "HarmonicDimTooSmall",
                     "message": "harmonic quotient needs rank >= 3 over E, "
                                "got 2"}


def test_no_command_builds_a_matrix_over_a_number_field(monkeypatch, capsys):
    # classify, tha and ksympl keep every matrix rational; number-field
    # elements appear only in vectors
    from fractions import Fraction

    from hodgekit.exactmath import Matrix

    init = Matrix.__init__
    shapes = []

    def counting(self, rows, cols=None):
        init(self, rows, cols)
        if not all(isinstance(x, (int, Fraction))
                   for r in self.entries for x in r):
            shapes.append((self.rows, self.cols))

    monkeypatch.setattr(Matrix, "__init__", counting)
    files = sorted(CORPUS.glob("*.json"))
    assert len(files) == 8
    codes = []
    for path in files:
        for args in (["classify"], ["tha", "--n", "3"], ["ksympl"]):
            codes.append(main([args[0], str(path), *args[1:], "--json"]))
    capsys.readouterr()
    assert codes.count(0) == 12
    assert shapes == []


def test_tha_rejects_n_zero():
    code, _ = run_cli(["tha", str(CORPUS / "qi_period.json"), "--n", "0"])
    assert code == 2
    code, out = run_cli(["tha", str(CORPUS / "qi_period.json"), "--n", "0",
                         "--json"])
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["sections"]["error"]["class"] == "ValidationError"


@pytest.mark.parametrize("flag", ["--json", "--js"])
def test_usage_error_is_a_report(flag, capsys):
    code, out = run_inproc(["tha", str(CORPUS / "qi_period.json"), flag],
                           capsys)
    assert code == 2
    error = json.loads(out)["sections"]["error"]
    assert error == {"class": "ValidationError",
                     "message": "the following arguments are required: --n"}
    code, out = run_inproc(["tha", str(CORPUS / "qi_period.json")], capsys)
    assert code == 2 and out.startswith("hodgekit tha: error\n")


def test_version_exits_zero():
    code, out = run_cli(["--version"])
    assert code == 0 and out == b"hodgekit 0.1.0\n"


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize("path", SYNTAX, ids=lambda p: p or "top")
def test_help_names_every_flag(path, flag, capsys):
    code, out = run_inproc([*path.split(), flag], capsys)
    assert code == 0
    assert out.startswith(" ".join(("usage: hodgekit", *path.split())))
    assert set(re.findall(r"--[\w-]+", out)) >= set(_level(path)[1])


def test_json_may_precede_the_command(capsys):
    code, out = run_inproc(["--json", "bounds", "--d", "3"], capsys)
    assert code == 0 and json.loads(out)["sections"]["torus"]["d"] == 3


def test_double_dash_ends_the_options(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-p.json").write_text((CORPUS / "qi_period.json").read_text())
    code, out = run_inproc(["classify", "--json", "--", "-p.json"], capsys)
    assert code == 0 and json.loads(out)["status"] == "ok"


def _table_flags():
    """{command path: its flags} over the commands of the syntax table,
    without --help."""
    return {tuple(path.split()): set(_level(path)[1]) - {"--help"}
            for path, (_, positionals, _) in SYNTAX.items()
            if positionals is not None}


def test_readme_flag_table_matches_parser():
    text = (ROOT / "README.md").read_text()
    table = text.split("Flags, per subcommand:")[1].split("\n\n")[1]
    documented = {}
    for line in table.splitlines()[2:]:      # past the header and rule
        command, flags = line.strip("|").split("|")
        words = command.strip().strip("`").split()
        documented[tuple(w for w in words if not w.isupper())] = \
            set(re.findall(r"--[\w-]+", flags))
    assert documented == _table_flags()


def test_ksympl_quaternion(capsys):
    code, out = run_inproc(["ksympl", str(CORPUS / "quaternion3.json"),
                            "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    ver = doc["sections"]["verification"]
    assert ver["quadric"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert ver["rank_on_quadric"] == 2
    assert doc["sections"]["clifford"]["operator_squares"] == ["-1", "-1"]
    assert doc["sections"]["divisibility"] == {"bound": 2, "divides": True}


def test_ksympl_doubled(capsys):
    code, out = run_inproc(["ksympl", str(CORPUS / "quaternion3_doubled.json"),
                            "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["sections"]["verification"]["rank_on_quadric"] == 4


def test_bounds(capsys):
    code, out = run_inproc(["bounds", "--d", "20", "--e", "1", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["sections"]["torus"]["torus_bound"] == 1024
    assert doc["sections"]["subvariety"]["bound"] == 22
    code, out = run_inproc(["bounds", "--d", "3", "--dim-h1", "4", "--json"],
                           capsys)
    doc = json.loads(out)
    assert doc["sections"]["torus"]["h1_divisible"] is True
    assert doc["sections"]["torus"]["complex_dim_divisible"] is False


def test_check_path(capsys):
    code, out = run_inproc(["perdom", "check-path",
                            str(CORPUS / "circle_path.json"), "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["sections"]["path"]["derivative_identity"] is True


BAD_CASES = [
    ("unknown_version.json", "classify", "FileFormatError"),
    ("unknown_kind.json", "classify", "FileFormatError"),
    ("float_number.json", "perdom", "FileFormatError"),
    ("nonsymmetric_gram.json", "classify", "NotSymmetric"),
    ("reducible_field.json", "classify", "Reducible"),
    ("nonmonic_field.json", "classify", "NotMonic"),
    ("degree_too_large.json", "classify", "DegreeTooLarge"),
    ("isotropy_fails.json", "classify", "IsotropyFails"),
    ("positivity_fails.json", "classify", "PositivityFails"),
    ("wrong_signature.json", "classify", "WrongSignature"),
    ("oversized_ksympl.json", "ksympl", "TooLarge"),
    ("dependent_psis.json", "ksympl", "ValidationError"),
    ("nonantisymmetric_psi.json", "ksympl", "ValidationError"),
    ("nonisotropic_path.json", "perdom", "NotIsotropicPath"),
    ("omega_wrong_length.json", "classify", "FileFormatError"),
    ("huge_number.json", "classify", "FileFormatError"),
]


@pytest.mark.parametrize("name,command,error_class", BAD_CASES)
def test_malformed_corpus(name, command, error_class, capsys):
    path = str(CORPUS / "bad" / name)
    args = [command, path, "--json"] if command != "perdom" else \
        ["perdom", "check-path", path, "--json"]
    code, out = run_inproc(args, capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["sections"]["error"]["class"] == error_class


@pytest.mark.parametrize("index", [True, False, 1.0, "1"])
def test_embedding_index_must_be_an_integer(index, tmp_path, capsys):
    doc = json.loads((CORPUS / "qi_period.json").read_text())
    doc["embedding"] = index
    path = tmp_path / "period.json"
    path.write_text(json.dumps(doc))
    code, out = run_inproc(["classify", str(path), "--json"], capsys)
    assert code == 2
    error = json.loads(out)["sections"]["error"]
    assert error["class"] == "FileFormatError"
    assert "embedding index" in error["message"]


def _error_of(doc, command, tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    args = [command, str(path), "--json"] if command != "perdom" else \
        ["perdom", "check-path", str(path), "--json"]
    code, out = run_inproc(args, capsys)
    assert code == 2
    return json.loads(out)["sections"]["error"]


FILE_KINDS = [("qi_period.json", "classify", ["gram", "field", "embedding",
                                              "omega"]),
              ("quaternion3.json", "ksympl", ["psis"]),
              ("circle_path.json", "perdom", ["gram", "coords"])]


@pytest.mark.parametrize("name,command,keys", FILE_KINDS)
def test_each_missing_key_is_named(name, command, keys, tmp_path, capsys):
    doc = json.loads((CORPUS / name).read_text())
    for i, key in enumerate(keys):
        # the first missing key in schema order is the one reported
        partial = {k: v for k, v in doc.items() if k not in keys[i:]}
        error = _error_of(partial, command, tmp_path, capsys)
        assert error == {"class": "FileFormatError",
                         "message": f"{doc['kind']} file is missing {key!r}"}


FILE_FORMAT_REJECTIONS = [
    ("qi_period.json", "classify", "field", "1", "field: expected an array"),
    ("qi_period.json", "classify", "gram", [],
     "gram: expected a nonempty array of rows"),
    ("qi_period.json", "classify", "gram", [["1", "0"], ["1"]],
     "gram: ragged matrix"),
    ("qi_period.json", "classify", "extra", 1,
     "unknown keys for kind k3period: ['extra']"),
    ("qi_period.json", "classify", "omega", "0",
     "omega must list one field element per dimension"),
    ("quaternion3.json", "ksympl", "psis", [],
     "psis must be a nonempty array of matrices"),
    ("circle_path.json", "perdom", "coords", "0",
     "coords must be an array of polynomials"),
]


@pytest.mark.parametrize("name,command,key,value,message",
                         FILE_FORMAT_REJECTIONS)
def test_file_format_rejections(name, command, key, value, message, tmp_path,
                                capsys):
    doc = json.loads((CORPUS / name).read_text())
    doc[key] = value
    error = _error_of(doc, command, tmp_path, capsys)
    assert error == {"class": "FileFormatError", "message": message}


def test_top_level_must_be_an_object(tmp_path, capsys):
    error = _error_of("[]", "classify", tmp_path, capsys)
    assert error == {"class": "FileFormatError",
                     "message": "top level must be an object"}


@pytest.mark.parametrize("args,message", [
    (["bounds", "--d", "2", "--=3"],
     "ambiguous option: --=3 could match --help, --d, --e, --dim-h1, --json"),
    (["bounds", "--d", "2", "--json=yes"],
     "argument --json: ignored explicit argument 'yes'"),
    (["classify", "x.json", "-hX"],
     "argument -h/--help: ignored explicit argument 'X'"),
])
def test_option_rejections(args, message, capsys):
    code, out = run_inproc([*args, "--json"], capsys)
    assert code == 2
    assert json.loads(out)["sections"]["error"] == {
        "class": "ValidationError", "message": message}


def test_one_dimensional_period_is_a_wrong_signature(tmp_path, capsys):
    doc = {"version": "1", "kind": "k3period", "gram": [["1"]],
           "field": ["1", "0", "1"], "embedding": 0, "omega": [["1", "0"]]}
    error = _error_of(doc, "classify", tmp_path, capsys)
    assert error == {"class": "WrongSignature", "message":
                     "dim V = 1, but signature (2, m - 2) needs dim V >= 2"}


def test_wrong_kind_is_reported_before_missing_keys(tmp_path, capsys):
    doc = {"version": "1", "kind": "ksymplectic"}
    error = _error_of(doc, "classify", tmp_path, capsys)
    assert error["message"] == "classify needs a k3period file, got ksymplectic"


def test_integer_past_the_digit_limit_is_a_file_error(tmp_path, capsys):
    text = (CORPUS / "qi_period.json").read_text().replace(
        '"embedding": 1', '"embedding": 1' + "0" * 5000)
    error = _error_of(text, "classify", tmp_path, capsys)
    assert error["class"] == "FileFormatError"
    assert "invalid JSON" in error["message"]


@pytest.mark.parametrize("value", ["5\n", "\u0665", "\uff15", "5/-3", "0x5"])
def test_numbers_are_ascii_p_over_q(value, tmp_path, capsys):
    doc = json.loads((CORPUS / "qi_period.json").read_text())
    doc["gram"][0][0] = value
    error = _error_of(doc, "classify", tmp_path, capsys)
    assert error == {"class": "FileFormatError", "message":
                     f"gram: numbers must be strings like \"p/q\", got {value!r}"}


def test_signed_numbers_are_accepted():
    assert _ratio("+5", "gram") == (5, 1)
    assert _ratio("-3/4", "gram") == (-3, 4)
    assert _ratio("6/4", "gram") == (3, 2)


def test_printed_number_past_the_digit_limit_is_too_large(tmp_path, capsys):
    # each input entry has 2201 digits, under the limit; the Pfaffian
    # scalar of the report has about 4400
    doc = json.loads((CORPUS / "quaternion3.json").read_text())
    big = "1" + "0" * 2200
    doc["psis"] = [[[c if c == "0" else c.replace("1", big) for c in row]
                    for row in m] for m in doc["psis"]]
    error = _error_of(doc, "ksympl", tmp_path, capsys)
    assert error == {"class": "TooLarge", "message":
                     f"a result has more than {sys.get_int_max_str_digits()} "
                     "digits"}


def test_k1_rejected_at_runtime(capsys):
    code, out = run_inproc(["ksympl", str(CORPUS / "bad" / "k1_symplectic.json"),
                            "--json"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["sections"]["verification"]["failure_reason"] == "NotQuadricPower"


def test_machine_output_round_trips(capsys):
    code, out = run_inproc(["classify", str(CORPUS / "qi_period.json"),
                            "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    again = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert again == out


@pytest.mark.parametrize("args", [
    ["classify", str(CORPUS / "qi_period.json"), "--json"],
    ["classify", str(CORPUS / "sqrt2i_period.json"), "--json"],
    ["tha", str(CORPUS / "qi_period.json"), "--n", "3", "--json"],
    ["ksympl", str(CORPUS / "quaternion3.json"), "--json"],
    ["ksympl", str(CORPUS / "quaternion3_doubled.json"), "--json"],
    ["bounds", "--d", "20", "--e", "1", "--dim-h1", "2048", "--json"],
    ["perdom", "check-path", str(CORPUS / "circle_path.json"), "--json"],
])
def test_byte_determinism_across_processes(args):
    code1, out1 = run_cli(args, hashseed="1")
    code2, out2 = run_cli(args, hashseed="424242")
    assert code1 == code2 == 0
    assert out1 == out2


def test_classify_check_mode(tmp_path, capsys):
    code, out = run_inproc(["classify", str(CORPUS / "qi_period.json"),
                            "--json"], capsys)
    recorded = tmp_path / "recorded.json"
    recorded.write_bytes(out.encode())
    code, out2 = run_inproc(["classify", str(CORPUS / "qi_period.json"),
                             "--json", "--check", str(recorded)], capsys)
    assert code == 0
    # a tampered recording fails the check
    recorded.write_bytes(out.replace("CM", "XX").encode())
    code, _ = run_inproc(["classify", str(CORPUS / "qi_period.json"),
                          "--json", "--check", str(recorded)], capsys)
    assert code == 2


def test_nonstable_mignotte_period_is_rejected_by_trager(tmp_path):
    # the Gram matrix and omega = (1, -x^2/2, x) of
    # corpus/bad/mignotte_positivity_fails.json over x^8 - 2(11x - 1)^2 at
    # its nonreal embedding 4: no guess of the conjugation certifies, and
    # Trager's search shows the embedded field is not conjugation stable.
    # Kept out of corpus/, as Trager's search loads sympy
    doc = json.loads((CORPUS / "bad" / "mignotte_positivity_fails.json")
                     .read_text())
    zeros = ["0"] * 8
    doc.update(field=["-2", "44", "-242"] + zeros[3:] + ["1"], embedding=4,
               omega=[["1"] + zeros[1:], ["0", "0", "-1/2"] + zeros[3:],
                      ["0", "1"] + zeros[2:]])
    path = tmp_path / "period.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    code, out = run_cli(["classify", str(path), "--json"])
    assert time.monotonic() - start < 20
    assert code == 2
    assert (json.loads(out)["sections"]["error"]["class"]
            == "ConjugationNotInternal")


def test_trager_search_past_its_cap_is_too_large(tmp_path):
    # the same period over x^10 - 2(11x - 1)^2 at its nonreal embedding 4:
    # no guess certifies, and Trager's norm would have degree 100, past
    # the cap of 64 (the search took about 10 s before the cap)
    doc = json.loads((CORPUS / "bad" / "mignotte_positivity_fails.json")
                     .read_text())
    zeros = ["0"] * 10
    doc.update(field=["-2", "44", "-242"] + zeros[3:] + ["1"], embedding=4,
               omega=[["1"] + zeros[1:], ["0", "0", "-1/2"] + zeros[3:],
                      ["0", "1"] + zeros[2:]])
    path = tmp_path / "period.json"
    path.write_text(json.dumps(doc))
    start = time.monotonic()
    code, out = run_cli(["classify", str(path), "--json"])
    assert time.monotonic() - start < 5
    assert code == 2
    error = json.loads(out)["sections"]["error"]
    assert error["class"] == "TooLarge" and "cap 64" in error["message"]


def test_root_isolation_past_its_top_precision_exits_2(tmp_path, capsys,
                                                        monkeypatch):
    # the period of corpus/bad/mignotte_positivity_fails.json over
    # x^16 - 2(ax - 1)^2, a = 10^12 + 3, with the precisions cut to 30 and
    # 60 digits: the two roots near 1/a do not separate, which is valid
    # input past a cap (exit 2), not a bug (exit 3)
    from hodgekit.exactmath import rootiso
    from test_exactmath import clear_root_caches

    a = 10**12 + 3
    doc = json.loads((CORPUS / "bad" / "mignotte_positivity_fails.json")
                     .read_text())
    doc["field"][1:3] = [str(4 * a), str(-2 * a * a)]
    path = tmp_path / "period.json"
    path.write_text(json.dumps(doc))
    clear_root_caches()
    monkeypatch.setattr(rootiso, "ROOT_DIGITS", (30, 60))
    code, out = run_inproc(["classify", str(path), "--json"], capsys)
    monkeypatch.undo()
    clear_root_caches()
    assert code == 2
    error = json.loads(out)["sections"]["error"]
    assert error["class"] == "TooLarge" and "60 digits" in error["message"]


def test_internal_error_exit_code(capsys):
    from types import SimpleNamespace

    from hodgekit.cli import _run_command
    from hodgekit.errors import InternalError

    def worker():
        raise InternalError("synthetic")

    args = SimpleNamespace(json=True, check=None)
    code = _run_command("classify", worker, args)
    out = capsys.readouterr().out
    assert code == 3
    assert json.loads(out)["status"] == "internal-error"


def test_classify_tha_and_ksympl_do_not_import_sympy():
    # every good period file is validated and classified from fixed-point
    # root approximations and exact certificates, and every ksympl file
    # decided by exact Pfaffian values, without loading sympy or
    # mpmath
    periods = sorted(p for p in CORPUS.glob("*_period.json"))
    assert len(periods) == 5
    families = [CORPUS / "quaternion3.json",
                CORPUS / "quaternion3_doubled.json",
                CORPUS / "bad" / "k1_symplectic.json"]
    script = (
        "import sys\n"
        "from hodgekit.cli import main\n"
        "codes = []\n"
        "for path in sys.argv[1:]:\n"
        "    if path.endswith('_period.json'):\n"
        "        codes.append(main(['classify', path, '--json']))\n"
        "        codes.append(main(['tha', path, '--n', '2', '--json']))\n"
        "    else:\n"
        "        codes.append(main(['ksympl', path, '--json']))\n"
        "print(codes, 'sympy' in sys.modules, 'mpmath' in sys.modules,\n"
        "      file=sys.stderr)\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, periods + families)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == f"{[0] * 10 + [0, 0, 2]} False False"


@pytest.mark.parametrize("modules", [["hodgekit.cli"],
                                     ["hodgekit.ksympl", "hodgekit.symalg"]])
def test_imports_load_neither_dataclasses_nor_inspect(modules):
    # hodgekit's records are plain classes: stdlib dataclasses, with the
    # inspect, ast, dis and tokenize it loads, would cost each process
    # about 25 ms of start-up; the command line is read by cli's own
    # syntax table, without argparse and the gettext and locale that
    # argparse loads on first use, so main() runs once before the check
    script = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "if 'hodgekit.cli' in sys.modules:\n"
        "    sys.modules['hodgekit.cli'].main(['bounds', '--d', '3', '--json'])\n"
        "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', 'locale'}\n"
        "             & (set(sys.modules) - before)), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script, *modules],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"
