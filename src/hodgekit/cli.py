"""Command-line front end.

Problem files are JSON with a version tag; every arithmetic number is a
string "p/q" so parsing is lossless.  Polynomials are coefficient
arrays constant term first, matrices row-major arrays of arrays, field
elements coefficient arrays in the power basis.  An array of numbers is
read as integers over the lcm of its denominators, the integer row form
that matrices and field elements keep up to the report.  All commands are
deterministic: the machine output (--json) is canonical JSON with
sorted keys and round-trips byte-identically.

Exit codes: 0 success, 2 validation or input error, 3 internal error.
"""

import json
import re
import sys
from fractions import Fraction
from math import gcd, lcm
from types import SimpleNamespace

from . import __version__
from .errors import (FileFormatError, HodgekitError, InternalError, TooLarge,
                     ValidationError)
from .exactmath import Matrix, nf_create, nf_embeddings
from .exactmath.linalg import _integer_rows
from .hodge import (endomorphism_field, hodge_classes_tensor_square,
                    transcendental_lattice, validate_period)
from .ksympl import (KSymplecticCandidate, check_torus, clifford_operators,
                     divisibility_bound, subvariety_bound, torus_bound,
                     verify_k_symplectic)
from .perdom import PeriodPath, griffiths_check
from .qforms import QuadraticSpace, congruence_diagonal
from .symalg import build_tha

FORMAT_VERSION = "1"
# problem file kind -> its keys besides "version" and "kind", all required
KINDS = {
    "k3period": ("gram", "field", "embedding", "omega"),
    "ksymplectic": ("psis",),
    "path": ("gram", "coords"),
}
# the largest --d and --e of bounds: its numbers, up to 2**500, stay far
# below Python's 4300-digit limit on printing an int; also the largest
# --n of tha, whose report grows with n
BOUNDS_CAP = 1000


_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?")
# integers joined by NUL, a character int() rejects inside a number
_INTEGERS_RE = re.compile(r"[+-]?[0-9]+(?:\0[+-]?[0-9]+)*")


def _ratio(value, where):
    """A "p/q" string as the integers (p, q) in lowest terms."""
    match = _RATIONAL_RE.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise FileFormatError(
            f"{where}: numbers must be strings like \"p/q\", got {value!r}")
    num, den = match.groups()
    try:
        num, den = int(num), int(den or 1)
    except ValueError:      # past the interpreter's int conversion limit
        raise FileFormatError(f"{where}: a number has more than "
                              f"{sys.get_int_max_str_digits()} digits") from None
    g = gcd(num, den)
    return num // g, den // g


def _int_row(values, where):
    """An array of "p/q" strings as integers over the lcm of the q.  An
    array of integers is validated by one match of its entries joined by
    NUL and converted by int() alone; any other array, and one whose
    conversion fails, goes through _ratio entry by entry, which gives the
    error message."""
    if not isinstance(values, list):
        raise FileFormatError(f"{where}: expected an array")
    try:
        if _INTEGERS_RE.fullmatch("\0".join(values)):
            return list(map(int, values)), 1
    except (TypeError, ValueError):  # a non-string, or past int()'s limit
        pass
    pairs = [_ratio(v, where) for v in values]
    den = lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


def _fraction_list(values, where):
    row, den = _int_row(values, where)
    return [Fraction(x, den) for x in row]


def _matrix(values, where):
    if not isinstance(values, list) or not values:
        raise FileFormatError(f"{where}: expected a nonempty array of rows")
    rows = [_int_row(r, where) for r in values]
    if len({len(r) for r, _ in rows}) != 1:
        raise FileFormatError(f"{where}: ragged matrix")
    return Matrix.from_int_rows(rows, len(rows[0][0]))


def load_problem_file(path):
    """Parse and validate a problem file; returns (kind, payload dict)."""
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:   # also an int past the conversion limit
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError("top level must be an object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise FileFormatError(
            f"unknown format version {version!r}; expected {FORMAT_VERSION!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise FileFormatError(
            f"unknown kind {kind!r}; expected one of {tuple(KINDS)}")
    extra = set(doc) - {"version", "kind", *KINDS[kind]}
    if extra:
        raise FileFormatError(f"unknown keys for kind {kind}: {sorted(extra)}")
    return kind, doc


def build_period(doc):
    """K3 period from a parsed k3period document."""
    gram = _matrix(doc["gram"], "gram")
    space = QuadraticSpace(gram)
    field = nf_create(_fraction_list(doc["field"], "field"))
    embs = nf_embeddings(field)
    idx = doc["embedding"]
    # bool is a subclass of int, but true is not an index
    if type(idx) is not int or not 0 <= idx < len(embs):
        raise FileFormatError(
            f"embedding index must be an integer in 0..{len(embs) - 1}")
    omega_rows = doc["omega"]
    if not isinstance(omega_rows, list) or len(omega_rows) != space.dim:
        raise FileFormatError("omega must list one field element per dimension")
    coords = [_int_row(r, "omega") for r in omega_rows]
    if any(len(c) != field.degree for c, _ in coords):
        raise FileFormatError(
            f"omega: each field element needs {field.degree} coordinates")
    omega = tuple(field.element_over(c, d) for c, d in coords)
    return validate_period(space, field, embs[idx], omega)


def build_candidate(doc):
    psis = doc["psis"]
    if not isinstance(psis, list) or not psis:
        raise FileFormatError("psis must be a nonempty array of matrices")
    return KSymplecticCandidate(tuple(_matrix(m, "psis") for m in psis))


def build_path(doc):
    space = QuadraticSpace(_matrix(doc["gram"], "gram"))
    coords = doc["coords"]
    if not isinstance(coords, list):
        raise FileFormatError("coords must be an array of polynomials")
    from .exactmath.unipoly import normalize

    polys = tuple(normalize(_fraction_list(c, "coords")) for c in coords)
    return PeriodPath(space, polys)


class Report:
    __slots__ = ("command", "status", "sections")

    def __init__(self, command, status, sections):
        self.command = command
        self.status = status
        self.sections = sections  # ((title, ((key, value), ...)), ...)

    @property
    def machine(self):
        return {
            "command": self.command,
            "status": self.status,
            "sections": {title: dict(rows) for title, rows in self.sections},
        }

    def machine_bytes(self):
        return (json.dumps(self.machine, sort_keys=True,
                           separators=(",", ":")) + "\n").encode()

    def human(self):
        lines = [f"hodgekit {self.command}: {self.status}"]
        for title, rows in self.sections:
            lines.append(f"[{title}]")
            for key, value in rows:
                lines.append(f"  {key}: {value}")
        return "\n".join(lines) + "\n"

    @property
    def exit_code(self):
        return 0 if self.status == "ok" else 2


def _fmt_fraction(x, den=1):
    """x / den in lowest terms as "p/q", or "p" when q is 1, for a
    rational x and an integer den > 0."""
    p, q = x.numerator, x.denominator * den
    g = gcd(p, q)
    try:
        return str(p // g) if q == g else f"{p // g}/{q // g}"
    except ValueError:      # past the interpreter's int conversion limit
        raise TooLarge(f"a result has more than "
                       f"{sys.get_int_max_str_digits()} digits") from None


def _fmt_vector(v):
    return [_fmt_fraction(c) for c in v]


def _fmt_matrix(m):
    return [[_fmt_fraction(x, d) for x in r] for r, d in _integer_rows(m)]


def cmd_classify(period):
    h = transcendental_lattice(period)
    ef = endomorphism_field(h)
    classes = hodge_classes_tensor_square(h)
    sections = (
        ("space", (
            ("dim_v", period.dim),
            ("field_degree", period.field.degree),
        )),
        ("transcendental_lattice", (
            ("dim_t", h.dim_t),
            ("dim_alg", h.alg.rows),
            ("basis", _fmt_matrix(h.trans)),
        )),
        ("endomorphism_field", (
            ("e", ef.e),
            ("classification", ef.classification),
            ("primitive_minpoly", _fmt_vector(ef.primitive_minpoly)),
            ("dim_fixed_subalgebra", len(ef.fixed_subalgebra)
             if ef.classification == "CM" else ef.e),
            ("mt_family", ef.mt.family),
            ("mt_rank", ef.mt.rank),
            ("hodge_classes_dim", len(classes)),
        )),
    )
    return Report("classify", "ok", sections)


def cmd_tha(period, n):
    h = transcendental_lattice(period)
    ef = endomorphism_field(h)
    tha = build_tha(h, ef, n)
    sections = (
        ("transcendental_hodge_algebra", (
            ("mode", tha.mode),
            ("n", tha.n),
            ("e", tha.e),
            ("rank_over_e", tha.rank_over_e),
            ("graded_dims_e", list(tha.graded_dims_e)),
            ("graded_dims_q", list(tha.graded_dims_q)),
        )),
    )
    return Report("tha", "ok", sections)


def cmd_ksympl(cand):
    report = verify_k_symplectic(cand)
    if not report.ok:
        sections = (
            ("verification", (
                ("ok", False),
                ("failure_reason", report.failure_reason),
                ("dim_v", cand.v_dim),
                ("k", cand.k),
            )),
        )
        return Report("ksympl", "error", sections)
    # the first diagonalizing vector is anisotropic
    base = congruence_diagonal(report.quadric)[1].entries[0]
    cliff = clifford_operators(cand, report, base)
    bound = divisibility_bound(cand.k)
    sections = (
        ("verification", (
            ("ok", True),
            ("dim_v", cand.v_dim),
            ("k", cand.k),
            ("quadric", _fmt_matrix(report.quadric)),
            ("scalar", _fmt_fraction(report.scalar)),
            ("rank_on_quadric", report.rank_on_quadric),
            ("witness_field", _fmt_vector(report.witness_field_poly)
             if report.witness_field_poly else None),
        )),
        ("clifford", (
            ("base_point", _fmt_vector(cliff.base_point)),
            ("operator_squares", [_fmt_fraction(s) for s in cliff.squares]),
        )),
        ("divisibility", (
            ("bound", bound),
            ("divides", cand.v_dim % bound == 0),
        )),
    )
    return Report("ksympl", "ok", sections)


def cmd_bounds(d, e=None, dim_h1=None):
    bound = torus_bound(d)
    rows = [("d", d), ("torus_bound", bound)]
    if dim_h1 is not None:
        rows.append(("dim_h1", dim_h1))
        rows.append(("h1_divisible", check_torus(d, dim_h1)))
        if dim_h1 % 2 == 0:
            rows.append(("complex_dim", dim_h1 // 2))
            rows.append(("complex_dim_divisible", (dim_h1 // 2) % bound == 0))
        else:
            rows.append(("complex_dim", None))
            rows.append(("complex_dim_divisible", None))
    sections = [("torus", tuple(rows))]
    if e is not None:
        sections.append(("subvariety", (
            ("e", e),
            ("bound", subvariety_bound(d, e)),
        )))
    return Report("bounds", "ok", tuple(sections))


def cmd_check_path(path):
    griffiths_check(path)
    sections = (
        ("path", (
            ("dim", path.space.dim),
            ("isotropic", True),
            ("derivative_identity", True),
        )),
    )
    return Report("perdom.check-path", "ok", sections)


def error_report(command, exc):
    status = "internal-error" if isinstance(exc, InternalError) else "error"
    sections = (
        ("error", (
            ("class", type(exc).__name__),
            ("message", str(exc)),
        )),
    )
    return Report(command, status, sections)


def _emit(report, as_json):
    out = report.machine_bytes() if as_json else report.human().encode()
    sys.stdout.buffer.write(out)
    sys.stdout.buffer.flush()


def _run_command(command, worker, args):
    try:
        report = worker()
    except InternalError as exc:
        _emit(error_report(command, exc), args.json)
        return 3
    except HodgekitError as exc:
        _emit(error_report(command, exc), args.json)
        return 2
    if getattr(args, "check", None):
        try:
            with open(args.check, "rb") as fh:
                expected = fh.read()
        except OSError as exc:
            _emit(error_report(command, FileFormatError(str(exc))), args.json)
            return 2
        if expected != report.machine_bytes():
            _emit(error_report(command, ValidationError(
                "check failed: machine output differs from the recorded run")),
                args.json)
            return 2
    _emit(report, args.json)
    return report.exit_code


# command path -> (help, positional names, options).  A level whose
# positionals are None takes the next word of a longer path.  Each option
# maps to (type, required, metavar, help): int or str takes one value,
# None is a flag.  Every level also takes --help (or -h) and --json.
SYNTAX = {
    "": ("exact K3-type Hodge structure and k-symplectic toolkit", None, {
        "--version": (None, False, None, "show the version and exit")}),
    "classify": ("transcendental lattice and endomorphism field", ("file",), {
        "--check": (str, False, "MACHINE_JSON",
                    "re-run and diff against recorded machine output")}),
    "tha": ("transcendental Hodge algebra dimensions", ("file",), {
        "--n": (int, True, "N", "half the complex dimension of the manifold")}),
    "ksympl": ("verify a k-symplectic structure", ("file",), {}),
    "bounds": ("divisibility and dimension bounds", (), {
        "--d": (int, True, "D", "essential dimension of the deformation family"),
        "--e": (int, False, "E", "degree of the endomorphism field"),
        "--dim-h1": (int, False, "DIM_H1", "dim H^1 of the candidate torus")}),
    "perdom": ("period-domain checks", None, {}),
    "perdom check-path": ("verify the transversality identity on a path",
                          ("file",), {}),
}
_HELP = (None, False, None, "show this help message and exit")
_JSON = (None, False, None, "print canonical machine JSON only")
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _subcommands(path):
    return [p.rpartition(" ")[2] for p in SYNTAX
            if p and p.rpartition(" ")[0] == path]


def _level(path):
    """(positional names, options) of a level; the one positional of a
    level with subcommands is named after the path."""
    _, positionals, own = SYNTAX[path]
    if positionals is None:
        positionals = (f"{path}_command" if path else "command",)
    return list(positionals), {"--help": _HELP, **own, "--json": _JSON}


def _dest(option):
    return option[2:].replace("-", "_")


def _usage(path):
    positionals, options = _level(path)
    words = ["usage: hodgekit", *path.split(), "[-h]"]
    for name, (kind, required, metavar, _) in list(options.items())[1:]:
        word = name if kind is None else f"{name} {metavar}"
        words.append(word if required else f"[{word}]")
    if SYNTAX[path][1] is None:
        positionals = ["{" + ",".join(_subcommands(path)) + "}", "..."]
    return " ".join(words + positionals)


def _help(path):
    about, positionals, _ = SYNTAX[path]
    lines = [_usage(path), "", about]
    if positionals is None:
        lines += ["", "commands:"]
        lines += [f"  {sub:<22}{SYNTAX[f'{path} {sub}'.lstrip()][0]}"
                  for sub in _subcommands(path)]
    elif positionals:
        lines += ["", "positional arguments:", *(f"  {p}" for p in positionals)]
    lines += ["", "options:"]
    for name, (kind, _, metavar, text) in _level(path)[1].items():
        left = "-h, --help" if name == "--help" else \
            name if kind is None else f"{name} {metavar}"
        lines.append(f"  {left:<22}{text}")
    return "\n".join(lines) + "\n"


def _read(token, options):
    """How argparse reads one token at a level: None for a positional or
    a value, else (the options it can name, its value after "=" or None).
    A long option may be any prefix of one."""
    if token[:1] != "-" or token == "-":
        return None
    if token[1] != "-":
        if token.startswith("-h"):      # -hX gives -h the value X
            return ["--help"], token[2:] or None
    else:
        head, eq, value = token.partition("=")
        hits = [head] if head in options else \
            [name for name in options if name.startswith(head)]
        if hits:
            return hits, value if eq else None
    if _NEGATIVE_NUMBER.fullmatch(token) or " " in token:
        return None
    return [], None


def parse_args(argv):
    """Read argv by SYNTAX in one walk, as argparse did.

    Returns a namespace with `command` (the first word of the command
    path), `json`, and the positionals and options of the command (absent
    options None).  `output` is the text of --help or --version, if given
    before any error; else `error` is the first usage error in argparse's
    order, or None, with `usage` the usage line of the level that found
    it.  The walk goes on past an error, so a later --json still asks for
    a JSON report."""
    args = SimpleNamespace(command=None, json=False, output=None,
                           error=None, usage=None)

    def fail(message, where):
        if args.error is None:
            args.error, args.usage = message, _usage(where)

    path, extras, seen, only_positionals = "", [], set(), False
    positionals, options = _level(path)
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if token == "--" and not only_positionals:
            only_positionals = True
            continue
        read = None if only_positionals else _read(token, options)
        if read is None and not positionals:
            extras.append(token)
        elif read is None and SYNTAX[path][1] is None:
            dest, subs = positionals.pop(), _subcommands(path)
            if token not in subs:
                fail(f"argument {dest}: invalid choice: {token!r} (choose "
                     f"from {', '.join(map(repr, subs))})", path)
                continue
            setattr(args, dest, token)
            path = f"{path} {token}".lstrip()
            positionals, options = _level(path)
            for name in SYNTAX[path][2]:
                setattr(args, _dest(name), None)
        elif read is None:
            setattr(args, positionals.pop(0), token)
        elif len(read[0]) > 1:
            fail(f"ambiguous option: {token} could match "
                 f"{', '.join(read[0])}", path)
        elif not read[0]:
            extras.append(token)
        else:
            (name,), value = read
            kind = options[name][0]
            if kind is None and value is not None:
                label = "-h/--help" if name == "--help" else name
                fail(f"argument {label}: ignored explicit argument "
                     f"{value!r}", path)
            elif name == "--json":
                args.json = True
            elif kind is None:
                if args.error is None:
                    args.output = _help(path) if name == "--help" \
                        else f"hodgekit {__version__}\n"
                    return args
            elif value is None and (i == len(argv)
                                    or _read(argv[i], options) is not None):
                fail(f"argument {name}: expected one argument", path)
            else:
                if value is None:
                    value = argv[i]
                    i += 1
                try:
                    setattr(args, _dest(name), kind(value))
                except ValueError:
                    fail(f"argument {name}: invalid {kind.__name__} value: "
                         f"{value!r}", path)
                seen.add(name)
    missing = positionals + [name for name, spec in options.items()
                             if spec[1] and name not in seen]
    if missing:
        fail(f"the following arguments are required: {', '.join(missing)}",
             path)
    if extras:
        fail(f"unrecognized arguments: {' '.join(extras)}", "")
    return args


def _check_arguments(args):
    """Range checks on the numeric options, made before any file is read."""
    if args.command == "tha" and args.n < 1:
        raise ValidationError("--n must be at least 1")
    if args.command == "tha" and args.n > BOUNDS_CAP:
        raise ValidationError(f"--n must be at most {BOUNDS_CAP}")
    if args.command == "bounds":
        if args.d < 0:
            raise ValidationError("--d must be nonnegative")
        if args.d > BOUNDS_CAP:
            raise ValidationError(f"--d must be at most {BOUNDS_CAP}")
        if args.e is not None and args.e < 1:
            raise ValidationError("--e must be at least 1")
        if args.e is not None and args.e > BOUNDS_CAP:
            raise ValidationError(f"--e must be at most {BOUNDS_CAP}")
        if args.dim_h1 is not None and args.dim_h1 < 0:
            raise ValidationError("--dim-h1 must be nonnegative")


# command -> (report name, problem file kind or None, build and run)
COMMANDS = {
    "classify": ("classify", "k3period", lambda doc, args: cmd_classify(
        build_period(doc))),
    "tha": ("tha", "k3period", lambda doc, args: cmd_tha(
        build_period(doc), args.n)),
    "ksympl": ("ksympl", "ksymplectic", lambda doc, args: cmd_ksympl(
        build_candidate(doc))),
    "bounds": ("bounds", None, lambda doc, args: cmd_bounds(
        args.d, args.e, args.dim_h1)),
    "perdom": ("perdom.check-path", "path", lambda doc, args: cmd_check_path(
        build_path(doc))),
}


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.output is not None:         # --help or --version
        sys.stdout.write(args.output)
        return 0
    if args.error is not None:
        print(args.usage, file=sys.stderr)
        name = COMMANDS[args.command][0] if args.command else "hodgekit"
        _emit(error_report(name, ValidationError(args.error)), args.json)
        return 2
    name, kind, run = COMMANDS[args.command]

    def worker():
        _check_arguments(args)
        doc = None
        if kind is not None:
            got, doc = load_problem_file(args.file)
            if got != kind:
                raise FileFormatError(f"{name.split('.')[-1]} needs a {kind} "
                                      f"file, got {got}")
            missing = [key for key in KINDS[kind] if key not in doc]
            if missing:
                raise FileFormatError(f"{kind} file is missing {missing[0]!r}")
        return run(doc, args)

    return _run_command(name, worker, args)


if __name__ == "__main__":
    sys.exit(main())
