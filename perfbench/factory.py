"""Known-answer problems for the hodgekit benchmark.

Every problem is built from a seed together with the answer it must
produce.  The answers come from the construction and from the
benchmark's own arithmetic (Fractions, sympy), never from hodgekit.

* CM ladder: F = Q[x]/(x^d+1) acting on T = F with q(x, y) = Tr(a x ybar),
  the weight a in the real subfield positive at exactly one real place,
  the period omega the trace-dual basis of the power basis, and the space
  padded with -1 entries to rank 22.  The expected answer is e = d, CM,
  U_E of rank 1 and d Hodge classes.  A unimodular change of basis P
  gives the Gram matrix P^T G P and the period P^-1 omega.
* Harmonic top powers on SymAlgebra(q, HARMONIC, top), with q = P^T D P
  for a diagonal D; an indefinite D carries a pair (c, -c), so
  P^-1 (e_0 + e_1) is isotropic and its top power is already harmonic.
* k-symplectic families: octonion (and quaternion) left multiplications
  under a basis change, which are accepted with the unit quadric, and
  random antisymmetric families, whose Pfaffian is not a quadric power.

The seed changes every generated input, but only through signs of
coordinates (and family members) on top of fixed shapes.  A sign change
leaves the size of every number the computation meets unchanged, so an
item costs the same whatever the seed, and runs with different seeds
measure the same work.
"""

import cmath
import random
from fractions import Fraction

RANK = 22
LADDER = (2, 4, 8)
# constant term of the weight a = x + x^-1 + c; only one real place of
# Q(x + x^-1) makes a positive (for d = 2 the weight is the constant 1)
WEIGHT_SHIFT = {2: Fraction(1), 4: Fraction(0), 8: Fraction(-3, 2),
                16: Fraction(-9, 5)}
MIXING_SEED = 22
MIXING_MOVES = 16
# the largest problem of each workload, reported as largest_s
LARGEST = {"cli_corpus": "tha_sqrt2i", "cm_ladder": "d8_basis",
           "algebra": "power_top_d5_t6_cold"}


def fstr(x):
    return str(Fraction(x))


# ---- exact helpers -------------------------------------------------------

def unimodular(n, rng, moves):
    """A seeded integer matrix of determinant 1 and its inverse, built from
    `moves` elementary operations row_i += s * row_j with s = +-1."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        p[i] = [a + s * b for a, b in zip(p[i], p[j])]
        # inverse of the operation acts on columns of the inverse
        for row in inv:
            row[j] -= s * row[i]
    return p, inv


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(r, c)) for c in cols] for r in a]


def transpose(a):
    return [list(r) for r in zip(*a)]


def rref_rows(rows):
    """Nonzero rows of the reduced row-echelon form, as Fraction strings."""
    import sympy

    r, pivots = sympy.Matrix(rows).rref()
    return [[fstr(Fraction(int(c.p), int(c.q))) for c in r.row(i)]
            for i in range(len(pivots))]


def pfaffian(m):
    """Pfaffian of an antisymmetric matrix by expansion along row 0."""
    n = len(m)
    if n == 0:
        return 1
    total = 0
    for j in range(1, n):
        if m[0][j]:
            keep = [k for k in range(1, n) if k != j]
            sub = [[m[a][b] for b in keep] for a in keep]
            total += (-1) ** (j + 1) * m[0][j] * pfaffian(sub)
    return total


# ---- CM ladder -----------------------------------------------------------

def _trace_power(m, d):
    """Tr(x^m) for x a root of x^d + 1."""
    m %= 2 * d
    return d if m == 0 else (-d if m == d else 0)


def cm_weight(d):
    a = [Fraction(0)] * d
    a[0] = WEIGHT_SHIFT[d]
    if d > 2:
        a[1] += 1          # x
        a[d - 1] -= 1      # x^-1 = -x^(d-1)
    return a


def cm_gram(d):
    """Tr(a x^i conj(x^j)) = Tr(a x^(i-j)) on the power basis."""
    a = cm_weight(d)
    return [[sum(c * _trace_power(k + i - j, d) for k, c in enumerate(a))
             for j in range(d)] for i in range(d)]


def cm_omega(d):
    """Trace-dual basis of 1, x, ..., x^(d-1): 1/d and -x^(d-i)/d."""
    rows = []
    for i in range(d):
        v = [Fraction(0)] * d
        if i == 0:
            v[0] = Fraction(1, d)
        else:
            v[d - i] = Fraction(-1, d)
        rows.append(v)
    return rows


def embedding_roots(d):
    """Roots of x^d + 1 in hodgekit's canonical embedding order: nonreal
    roots sorted by (real part, imaginary part)."""
    roots = [cmath.exp(1j * cmath.pi * (2 * k + 1) / d) for k in range(d)]
    return sorted(roots, key=lambda z: (round(z.real, 9), z.imag))


def evaluate(u, z):
    return sum(float(c) * z ** k for k, c in enumerate(u))


def embedding_values(d):
    """sigma(a) at each embedding, in the canonical order."""
    a = cm_weight(d)
    return [evaluate(a, z).real for z in embedding_roots(d)]


def basis_change(rng):
    """P = U S and P^-1 = S U^-1: one fixed unimodular mixing U of all 22
    coordinates followed by seeded signs S = diag(+-1).  Elimination on a
    sign-scaled matrix meets the same numbers up to sign, so the cost of a
    rung is the same for every seed while its input differs."""
    u, u_inv = unimodular(RANK, random.Random(MIXING_SEED), MIXING_MOVES)
    signs = [rng.choice((1, -1)) for _ in range(RANK)]
    p = [[c * s for c, s in zip(row, signs)] for row in u]
    p_inv = [[c * s for c in row] for row, s in zip(u_inv, signs)]
    return p, p_inv


def cm_problem(d, rng=None, embedding=None):
    """(document, P^-1) for the rank-22 CM period; with an `rng` a seeded
    unimodular change of basis is applied."""
    g = [[Fraction(0)] * RANK for _ in range(RANK)]
    for i, row in enumerate(cm_gram(d)):
        g[i][:d] = row
    for i in range(d, RANK):
        g[i][i] = Fraction(-1)
    omega = cm_omega(d) + [[Fraction(0)] * d for _ in range(RANK - d)]
    if embedding is None:
        embedding = next(i for i, s in enumerate(embedding_values(d)) if s > 0)
    p_inv = [[int(i == j) for j in range(RANK)] for i in range(RANK)]
    if rng is not None:
        p, p_inv = basis_change(rng)
        g = matmul(matmul(transpose(p), g), p)
        omega = [[sum(p_inv[i][j] * omega[j][k] for j in range(RANK))
                  for k in range(d)] for i in range(RANK)]
    field = ["1"] + ["0"] * (d - 1) + ["1"]
    doc = {"version": "1", "kind": "k3period",
           "gram": [[fstr(c) for c in r] for r in g], "field": field,
           "embedding": embedding,
           "omega": [[fstr(c) for c in r] for r in omega]}
    return doc, p_inv


def cm_classify_answer(d, p_inv):
    """Predicted `classify --json` sections; the transcendental lattice is
    spanned by the first d columns of P^-1."""
    basis = rref_rows([[p_inv[i][j] for i in range(RANK)] for j in range(d)])
    return {
        "space": {"dim_v": RANK, "field_degree": d},
        "transcendental_lattice": {"dim_t": d, "dim_alg": RANK - d,
                                   "basis": basis},
        "endomorphism_field": {"e": d, "classification": "CM",
                               "dim_fixed_subalgebra": d // 2,
                               "mt_family": "U_E", "mt_rank": 1,
                               "hodge_classes_dim": d,
                               "primitive_minpoly_degree": d},
    }


def cm_tha_answer(d, n):
    return {"transcendental_hodge_algebra": {
        "mode": "full_e", "n": n, "e": d, "rank_over_e": 1,
        "graded_dims_e": [1] * (n + 1), "graded_dims_q": [d] * (n + 1)}}


def cm_ladder(seed):
    """The cm_ladder problem set: list of (name, document, argv tail,
    expected).  `expected` is either {"sections": ...} or {"error": class}."""
    rng = random.Random(seed)
    items = []
    for d in LADDER:
        doc, p_inv = cm_problem(d)
        items.append((f"d{d}_plain", doc, ["classify"],
                      {"sections": cm_classify_answer(d, p_inv)}))
        doc, p_inv = cm_problem(d, rng)
        items.append((f"d{d}_basis", doc, ["classify"],
                      {"sections": cm_classify_answer(d, p_inv)}))
    d = LADDER[-1]
    doc, _ = cm_problem(d)
    items.append((f"d{d}_plain_tha6", doc, ["tha", "--n", "6"],
                  {"sections": cm_tha_answer(d, 6)}))
    # near-miss 1: perturb one coordinate of omega by a rational; then
    # q(omega, omega) = 2 delta q(e_k, omega) + delta^2 g_kk, whose
    # nonrational part is nonzero
    doc, _ = cm_problem(d)
    k = rng.randrange(d)
    doc["omega"][k][0] = fstr(Fraction(doc["omega"][k][0])
                              + Fraction(rng.choice((1, -1)), rng.randint(2, 9)))
    items.append((f"d{d}_isotropy_miss", doc, ["classify"],
                  {"error": "IsotropyFails"}))
    # near-miss 2: an embedding where the weight is negative
    negative = [i for i, s in enumerate(embedding_values(d)) if s < 0]
    doc, _ = cm_problem(d, embedding=rng.choice(negative))
    items.append((f"d{d}_positivity_miss", doc, ["classify"],
                  {"error": "PositivityFails"}))
    return items


# ---- algebra: harmonic top powers ----------------------------------------

def quadratic_form(m, rng, definite):
    """(gram, isotropic vector or None) with gram = P^T D P."""
    if definite:
        diag = [rng.randint(1, 3) for _ in range(m)]
    else:
        c = rng.randint(1, 3)
        diag = [c, -c] + [rng.choice((1, -1)) * rng.randint(1, 2)
                          for _ in range(m - 2)]
    p, p_inv = unimodular(m, rng, m)
    dmat = [[diag[i] if i == j else 0 for j in range(m)] for i in range(m)]
    gram = matmul(matmul(transpose(p), dmat), p)
    iso = None
    if not definite:
        iso = [p_inv[i][0] + p_inv[i][1] for i in range(m)]
    return gram, iso


# (dim, top, definite, warm vectors): each algebra gets a fresh Gram
# matrix, so its first top power is cold (the splitting inverse is built)
# and the following ones are warm
HARMONIC_ALGEBRAS = (
    (3, 2, True, 3),
    (3, 6, False, 4),
    (4, 3, False, 3),
    (4, 6, False, 4),
    (5, 5, True, 3),
    (5, 6, False, 4),
    (6, 3, True, 3),
    (6, 4, False, 3),
)
ALGEBRA_SHAPES_SEED = 5


def _vector(m, rng):
    while True:
        v = [rng.randint(-3, 3) for _ in range(m)]
        if any(v):
            return v


# ---- algebra: k-symplectic families ---------------------------------------

_FANO = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2),
         (7, 1, 3))
_QUAT = ((1, 2, 3),)


def _left_multiplications(triples, dim):
    """Matrices of left multiplication by the imaginary units e_1..e_(dim-1)
    of the algebra with e_a e_b = e_c for each cyclic triple (a, b, c)."""
    table = {}
    for a, b, c in triples:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[(x, y)] = (1, z)
            table[(y, x)] = (-1, z)
    mats = []
    for a in range(1, dim):
        m = [[0] * dim for _ in range(dim)]
        m[a][0] = 1          # e_a * 1 = e_a
        m[0][a] = -1         # e_a * e_a = -1
        for b in range(1, dim):
            if b != a:
                s, c = table[(a, b)]
                m[c][b] = s
        mats.append(m)
    return mats


def clifford_family(dim, k, rng):
    """k left multiplications by imaginary units (quaternions for dim 4,
    octonions for dim 8) under a unimodular change of basis P^T psi P,
    both drawn from rng; accepted with the unit quadric and squares -1."""
    units = _left_multiplications(_QUAT if dim == 4 else _FANO, dim)
    chosen = sorted(rng.sample(range(dim - 1), k))
    p, _ = unimodular(dim, rng, dim)
    pt = transpose(p)
    psis = [matmul(matmul(pt, units[i]), p) for i in chosen]
    expect = {
        "ok": True, "failure_reason": None,
        "quadric": [[fstr(int(i == j)) for j in range(k)] for i in range(k)],
        "rank_on_quadric": dim // 2,
        "witness_field": ["1", "0", "1"],
        "operator_squares": ["-1"] * (k - 1),
    }
    return psis, expect


def random_family(dim, k, rng):
    """Random independent antisymmetric family whose Pfaffian is nonzero
    and not a constant times a power of one quadric."""
    import sympy

    ts = sympy.symbols(f"t0:{k}")
    while True:
        psis = []
        for _ in range(k):
            m = [[0] * dim for _ in range(dim)]
            for i in range(dim):
                for j in range(i + 1, dim):
                    m[i][j] = rng.randint(-2, 2)
                    m[j][i] = -m[i][j]
            psis.append(m)
        flat = sympy.Matrix([[c for r in m for c in r] for m in psis])
        if flat.rank() != k:
            continue
        generic = [[sum(t * m[i][j] for t, m in zip(ts, psis))
                    for j in range(dim)] for i in range(dim)]
        pf = sympy.expand(pfaffian(generic))
        if pf == 0:
            continue
        _, factors = sympy.factor_list(pf, *ts)
        degs = [(sympy.Poly(f, *ts).total_degree(), mult) for f, mult in factors]
        if degs != [(2, dim // 4)]:
            return psis, {"ok": False, "failure_reason": "NotQuadricPower"}


KSYMPL_FAMILIES = (("clifford", 4, 3), ("clifford", 8, 3), ("clifford", 8, 4),
                   ("clifford", 8, 5), ("random", 8, 3), ("random", 8, 4),
                   ("random", 8, 5))


def _signed(m, signs):
    """S M S for S = diag(signs)."""
    return [[s * c * t for c, t in zip(row, signs)]
            for row, s in zip(m, signs)]


def algebra(seed):
    """The algebra problem set: list of item dicts, in run order.  Gram
    matrices, vectors and families come from a fixed generator and the
    seed picks a sign for every coordinate and every family member.  A
    sign change keeps the size of every number the computation meets, so
    each item costs the same for every seed."""
    shapes = random.Random(ALGEBRA_SHAPES_SEED)
    rng = random.Random(seed)
    items = []
    for m, top, definite, warm in HARMONIC_ALGEBRAS:
        gram, iso = quadratic_form(m, shapes, definite)
        vectors = [_vector(m, shapes) for _ in range(warm + 1)]
        if iso is not None:
            vectors[-1] = iso
        signs = [rng.choice((1, -1)) for _ in range(m)]
        name = f"power_top_d{m}_t{top}"
        for i, v in enumerate(vectors):
            items.append({
                "name": f"{name}_cold" if i == 0 else f"{name}_warm{i}",
                "kind": "power_top", "algebra": name,
                "gram": _signed(gram, signs), "top": top,
                "vector": [s * c for s, c in zip(signs, v)],
                "isotropic": iso is not None and i == warm})
    for kind, dim, k in KSYMPL_FAMILIES:
        make = clifford_family if kind == "clifford" else random_family
        psis, expect = make(dim, k, shapes)
        signs = [rng.choice((1, -1)) for _ in range(dim)]
        psis = [[[f * c for c in row] for row in _signed(m, signs)]
                for m, f in zip(psis, (rng.choice((1, -1)) for _ in psis))]
        if expect["ok"]:
            expect = dict(expect, scalar=fstr(pfaffian(psis[0])))
        items.append({"name": f"ksympl_{kind}_v{dim}_k{k}", "kind": "ksympl",
                      "psis": psis, "expect": expect})
    return items


# ---- cli corpus -----------------------------------------------------------

def _err(cls):
    return {"error": cls}


# (name, argv, expected): the answers stated in README.md and tests/
CORPUS_GOOD = (
    ("classify_qi", ["classify", "corpus/qi_period.json"], {"sections": {
        "space": {"dim_v": 2, "field_degree": 2},
        "transcendental_lattice": {"dim_t": 2, "dim_alg": 0,
                                   "basis": [["1", "0"], ["0", "1"]]},
        "endomorphism_field": {"e": 2, "classification": "CM",
                               "primitive_minpoly": ["1", "0", "1"],
                               "dim_fixed_subalgebra": 1, "mt_family": "U_E",
                               "mt_rank": 1, "hodge_classes_dim": 2}}}),
    ("classify_sqrt2i", ["classify", "corpus/sqrt2i_period.json"],
     {"sections": {
         "transcendental_lattice": {"dim_t": 3},
         "endomorphism_field": {"e": 1, "classification": "TotallyReal",
                                "mt_family": "SO_E", "mt_rank": 3,
                                "hodge_classes_dim": 1}}}),
    ("tha_qi", ["tha", "corpus/qi_period.json", "--n", "3"], {"sections": {
        "transcendental_hodge_algebra": {"graded_dims_q": [2, 2, 2, 2]}}}),
    ("tha_sqrt2i", ["tha", "corpus/sqrt2i_period.json", "--n", "2"],
     {"sections": {
         "transcendental_hodge_algebra": {"graded_dims_q": [1, 3, 5]}}}),
    ("ksympl_quaternion3", ["ksympl", "corpus/quaternion3.json"],
     {"sections": {
         "verification": {"quadric": [["1", "0", "0"], ["0", "1", "0"],
                                      ["0", "0", "1"]],
                          "rank_on_quadric": 2},
         "clifford": {"operator_squares": ["-1", "-1"]},
         "divisibility": {"bound": 2, "divides": True}}}),
    ("ksympl_quaternion3_doubled", ["ksympl", "corpus/quaternion3_doubled.json"],
     {"sections": {"verification": {"rank_on_quadric": 4}}}),
    ("perdom_circle_path", ["perdom", "check-path", "corpus/circle_path.json"],
     {"sections": {"path": {"dim": 3, "isotropic": True,
                            "derivative_identity": True}}}),
    # corpus/bounds_hk23.json carries the payload of this call
    ("bounds_hk23", ["bounds", "--d", "20", "--e", "1"], {"sections": {
        "torus": {"d": 20, "torus_bound": 1024},
        "subvariety": {"e": 1, "bound": 22}}}),
    ("bounds_dim_h1", ["bounds", "--d", "20", "--e", "1", "--dim-h1", "2048"],
     {"sections": {"torus": {"torus_bound": 1024, "h1_divisible": True,
                             "complex_dim": 1024,
                             "complex_dim_divisible": True}}}),
)

CORPUS_BAD = (
    ("unknown_version.json", "classify", _err("FileFormatError")),
    ("unknown_kind.json", "classify", _err("FileFormatError")),
    ("float_number.json", "perdom", _err("FileFormatError")),
    ("nonsymmetric_gram.json", "classify", _err("NotSymmetric")),
    ("reducible_field.json", "classify", _err("Reducible")),
    ("nonmonic_field.json", "classify", _err("NotMonic")),
    ("degree_too_large.json", "classify", _err("DegreeTooLarge")),
    ("isotropy_fails.json", "classify", _err("IsotropyFails")),
    ("positivity_fails.json", "classify", _err("PositivityFails")),
    ("wrong_signature.json", "classify", _err("WrongSignature")),
    ("oversized_ksympl.json", "ksympl", _err("TooLarge")),
    ("dependent_psis.json", "ksympl", _err("ValidationError")),
    ("nonantisymmetric_psi.json", "ksympl", _err("ValidationError")),
    ("nonisotropic_path.json", "perdom", _err("NotIsotropicPath")),
    ("k1_symplectic.json", "ksympl",
     {"status": "error",
      "sections": {"verification": {"ok": False,
                                    "failure_reason": "NotQuadricPower"}}}),
)


def cli_corpus(seed):
    """The cli_corpus problem set in a seeded order."""
    items = [(name, argv, expect) for name, argv, expect in CORPUS_GOOD]
    for fname, command, expect in CORPUS_BAD:
        path = f"corpus/bad/{fname}"
        argv = ["perdom", "check-path", path] if command == "perdom" \
            else [command, path]
        items.append((f"bad_{fname[:-5]}", argv, expect))
    random.Random(seed).shuffle(items)
    return items
