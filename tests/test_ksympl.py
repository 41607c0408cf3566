"""Tests for Pfaffians, k-symplectic verification, Clifford operators
and the divisibility bounds."""

from fractions import Fraction
import json
from pathlib import Path
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hodgekit import errors, ksympl
from hodgekit.cli import build_candidate, cmd_ksympl, load_problem_file, main
from hodgekit.errors import (BasePointIsotropic, OddDimension, TooLarge,
                             ValidationError)
from hodgekit.exactmath import Matrix, det, nf_create, rank
from hodgekit.exactmath.linalg import _flatten, _integer_rows
from hodgekit.exactmath.mpoly import (mp_add, mp_from_vector, mp_items_grlex,
                                      mp_mul, mp_pow)
from hodgekit.ksympl import (CliffordResult, KSymplecticCandidate,
                             _combination, _principal_lattice, _quadric_root,
                             _rank_at, check_torus, clifford_operators,
                             divisibility_bound, pfaffian, subvariety_bound,
                             torus_bound, verify_k_symplectic)
from hodgekit.qforms import bilinear, congruence_diagonal
import reference_elimination as reference
import reference_pfaffian as symbolic
from reference_pfaffian import mp_eval, mp_scale

F = Fraction
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def fmat(rows):
    return Matrix([[F(c) for c in r] for r in rows])


I_L = fmat([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
J_L = fmat([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
K_L = fmat([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])


def quaternion_candidate():
    return KSymplecticCandidate((I_L, J_L, K_L))


def direct_sum(a, b):
    return Matrix(tuple(r + (F(0),) * b.cols for r in a.entries)
                  + tuple((F(0),) * a.cols + r for r in b.entries))


def doubled_candidate():
    return KSymplecticCandidate(tuple(direct_sum(m, m)
                                      for m in (I_L, J_L, K_L)))


def test_pfaffian_2x2():
    assert pfaffian(fmat([[0, 3], [-3, 0]])) == 3
    assert pfaffian(fmat([[0, F(-2, 7)], [F(2, 7), 0]])) == F(-2, 7)
    assert pfaffian(Matrix(())) == 1


def test_pfaffian_standard_symplectic_is_one():
    jstd = fmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    assert pfaffian(jstd) == 1


def test_pfaffian_quaternion_family():
    # Pf(sum w_i Psi_i) = w_0^2 + w_1^2 + w_2^2, at every point of the
    # principal lattice and at a rational point
    cand = quaternion_candidate()
    for w in _principal_lattice(3, 2) + [(F(1, 2), F(-3), F(2, 5))]:
        assert pfaffian(_combination(cand, w)) == sum(x * x for x in w)


def test_pfaffian_rejects_odd_and_nonantisymmetric():
    with pytest.raises(OddDimension):
        pfaffian(Matrix.zeros(3, 3))
    with pytest.raises(ValidationError, match="not antisymmetric"):
        pfaffian(fmat([[0, 1], [1, 0]]))
    with pytest.raises(ValidationError, match="not antisymmetric"):
        pfaffian(fmat([[1, 0], [0, 0]]))


def _random_antisymmetric(rng, n, zeros=0.0):
    rows = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() >= zeros:
                rows[i][j] = F(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
                rows[j][i] = -rows[i][j]
    return Matrix(rows)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_pfaffian_squared_is_det(seed):
    rng = random.Random(seed)
    m = _random_antisymmetric(rng, rng.choice([2, 4, 6, 8]),
                              zeros=rng.choice((0.0, 0.5)))
    assert pfaffian(m) ** 2 == det(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([2, 4, 6, 8, 10]),
       st.sampled_from([0.0, 0.4, 0.7]))
def test_pfaffian_matches_the_expansion(seed, n, zeros):
    # the elimination, with its row swaps on zero pivots, against the
    # expansion along the first row; sparse matrices force the swaps
    m = _random_antisymmetric(random.Random(seed), n, zeros)
    entries = [[{(): x} if x else {} for x in row] for row in m.entries]
    assert pfaffian(m) == symbolic.pfaffian(entries).get((), 0)


def test_candidate_construction_rejections():
    with pytest.raises(ValidationError):
        KSymplecticCandidate((I_L, I_L))  # dependent
    with pytest.raises(ValidationError):
        KSymplecticCandidate((Matrix.identity(4),))  # not antisymmetric
    with pytest.raises(TooLarge):
        KSymplecticCandidate((Matrix.zeros(12, 12),))
    with pytest.raises(ValidationError):
        KSymplecticCandidate((Matrix.zeros(4, 4),))  # dependent (zero)
    with pytest.raises(ValidationError, match="empty family"):
        KSymplecticCandidate(())
    with pytest.raises(ValidationError, match="divisible by 4"):
        KSymplecticCandidate((Matrix.zeros(6, 6),))
    with pytest.raises(TooLarge, match="k = 6 exceeds the cap 5"):
        KSymplecticCandidate((I_L,) * 6)
    with pytest.raises(ValidationError, match="share one shape"):
        KSymplecticCandidate((I_L, Matrix.zeros(8, 8)))
    assert KSymplecticCandidate((I_L, J_L)).k == 2


def test_verify_quaternion():
    rep = verify_k_symplectic(quaternion_candidate())
    assert rep.ok
    assert rep.quadric == Matrix.identity(3)
    assert rep.scalar == 1
    assert rep.rank_on_quadric == 2
    assert rep.witness_field_poly == (F(1), F(0), F(1))  # adjoined i


def test_verify_doubled():
    rep = verify_k_symplectic(doubled_candidate())
    assert rep.ok
    assert rep.quadric == Matrix.identity(3)
    assert rep.scalar == 1
    assert rep.rank_on_quadric == 4


def test_verify_k1_rejected():
    jstd = fmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    rep = verify_k_symplectic(KSymplecticCandidate((jstd,)))
    assert not rep.ok
    assert rep.failure_reason == "NotQuadricPower"


def test_verify_degenerate_pfaffian():
    # both forms live on the first three coordinates only, so every
    # combination is singular
    a = fmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    b = fmat([[0, 0, 1, 0], [0, 0, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0]])
    rep = verify_k_symplectic(KSymplecticCandidate((a, b)))
    assert not rep.ok
    assert rep.failure_reason == "NotGenericallySymplectic"


def two_form(terms):
    """The 4x4 two-form sum of c * e_ij over {(i, j): c}."""
    m = [[0] * 4 for _ in range(4)]
    for (i, j), c in terms.items():
        m[i][j] += c
        m[j][i] -= c
    return fmat(m)


def test_verify_degenerate_quadric():
    # Pfaffian of the combination: t0^2 + t1^2 - t2^2, a quadric of rank 3
    # in the k = 4 variables
    cand = KSymplecticCandidate((
        two_form({(0, 2): 1, (1, 3): -1}), two_form({(0, 3): 1, (1, 2): 1}),
        two_form({(0, 2): 1, (1, 3): 1}), two_form({(0, 1): 1})))
    rep = verify_k_symplectic(cand)
    assert not rep.ok
    assert rep.failure_reason == "DegenerateQuadric"
    assert issubclass(getattr(errors, rep.failure_reason), ValidationError)


def test_verify_two_form_subfamily():
    # (omega_I, omega_J): Pfaffian a^2 + b^2, one Clifford generator
    cand = KSymplecticCandidate((I_L, J_L))
    rep = verify_k_symplectic(cand)
    assert rep.ok
    assert rep.quadric == Matrix.identity(2)
    cliff = clifford_operators(cand, rep, (1, 0))
    assert len(cliff.operators) == 1
    assert cliff.squares == (F(-1),)


def test_verify_split_and_nonsplit_binary_quadrics():
    # (e01, e23): Pfaffian ab, a product of rational linear forms
    rep = verify_k_symplectic(KSymplecticCandidate((
        two_form({(0, 1): 1}), two_form({(2, 3): 1}))))
    assert not rep.ok
    assert rep.failure_reason == "NotQuadricPower"
    # (e01 + e23, e02 + 2 e13): Pfaffian a^2 - 2b^2, irreducible over Q
    rep = verify_k_symplectic(KSymplecticCandidate((
        two_form({(0, 1): 1, (2, 3): 1}), two_form({(0, 2): 1, (1, 3): 2}))))
    assert rep.ok
    assert rep.quadric == fmat([[1, 0], [0, -2]])
    assert rep.scalar == 1
    assert rep.rank_on_quadric == 2
    assert rep.witness_field_poly == (F(-1, 2), F(0), F(1))
    r = rep.witness_point[1]
    assert rep.witness_point[0] == r.parent.one() and r == r.parent.gen()


def factor_list_root(p, n, k):
    """Oracle for _quadric_root: sympy's factorization over Q, accepted
    when it is one factor of degree 2 with multiplicity n; the factor is
    scaled to grlex-leading coefficient 1 and returned as its matrix,
    with the scalar and sympy's rank of the matrix."""
    import sympy

    ts = sympy.symbols(f"t0:{k}")
    expr = sum(sympy.Rational(c.numerator, c.denominator)
               * sympy.Mul(*[t**e for t, e in zip(ts, exp)])
               for exp, c in p.items())
    _, factors = sympy.factor_list(expr, *ts)
    if len(factors) != 1 or factors[0][1] != n:
        return None
    poly = sympy.Poly(factors[0][0], *ts)
    if poly.total_degree() != 2:
        return None
    q = {tuple(int(e) for e in exp): F(int(c.p), int(c.q))
         for exp, c in poly.terms()}
    q = mp_scale(q, 1 / mp_items_grlex(q)[0][1])
    c = p[mp_items_grlex(p)[0][0]] / mp_items_grlex(mp_pow(q, n))[0][1]
    assert mp_scale(mp_pow(q, n), c) == p
    gram = [[F(0)] * k for _ in range(k)]
    for exp, a in q.items():
        i, j = [v for v, e in enumerate(exp) for _ in range(e)]
        gram[i][j] = gram[j][i] = a if i == j else a / 2
    r = sympy.Matrix([[sympy.Rational(a.numerator, a.denominator) for a in row]
                      for row in gram]).rank()
    return Matrix(gram), c, r


def _form(k, coeffs):
    """The polynomial sum c * t^exp over {exp: c} in k variables."""
    assert all(len(exp) == k for exp in coeffs)
    return {exp: F(c) for exp, c in coeffs.items() if c}


HYPERBOLIC = _form(2, {(1, 1): 1})
SPLIT_NOT = _form(2, {(2, 0): 1, (0, 2): -2})
HYPERBOLIC_K3 = _form(3, {(1, 1, 0): 1})
SPLIT_NOT_K3 = _form(3, {(2, 0, 0): 1, (0, 2, 0): -2})
SUM3 = _form(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
MIXED3 = _form(3, {(2, 0, 0): F(1, 3), (1, 1, 0): 2, (0, 1, 1): -5,
                   (0, 0, 2): 7})
LINEAR = mp_from_vector((F(1), F(2), F(-1)))


@pytest.mark.parametrize("p, n, k, accepted", [
    (HYPERBOLIC, 1, 2, False),
    (mp_pow(HYPERBOLIC, 2), 2, 2, False),
    (SPLIT_NOT, 1, 2, True),
    (mp_scale(mp_pow(SPLIT_NOT, 2), F(5, 2)), 2, 2, True),
    (_form(1, {(2,): 1}), 1, 1, False),
    (_form(1, {(4,): -3}), 2, 1, False),
    (HYPERBOLIC_K3, 1, 3, False),
    (mp_pow(HYPERBOLIC_K3, 2), 2, 3, False),
    (SPLIT_NOT_K3, 1, 3, True),
    (mp_pow(SPLIT_NOT_K3, 2), 2, 3, True),
    (mp_pow(LINEAR, 4), 2, 3, False),
    (mp_pow(LINEAR, 2), 1, 3, False),
    (mp_mul(SUM3, MIXED3), 2, 3, False),
    (mp_add(mp_pow(SUM3, 2), _form(3, {(4, 0, 0): 1})), 2, 3, False),
    (mp_scale(mp_pow(SUM3, 2), -3), 2, 3, True),
    (mp_scale(MIXED3, F(-2, 7)), 1, 3, True),
    (mp_scale(mp_pow(MIXED3, 2), -1), 2, 3, True),
    # the t1^2 t2^2 term leaves the Hessian candidate at (4, 0, 0) and
    # the first four lattice points alone
    (mp_add(mp_pow(SUM3, 2), _form(3, {(0, 2, 2): 1})), 2, 3, False),
])
def test_quadric_root_matches_factorization_on_crafted_powers(p, n, k,
                                                              accepted):
    # _quadric_root on p's values at the principal lattice, with the
    # Hessian candidate computed from p's coefficients at the first
    # lattice point where p is nonzero
    pairs = [(w, mp_eval(p, w)) for w in _principal_lattice(k, 2 * n)]
    v, pv = next((w, pw) for w, pw in pairs if pw)
    root = _quadric_root(symbolic.gram_candidate(p, n, v), n, v, pv, pairs)
    assert root == factor_list_root(p, n, k) == symbolic.quadric_root(p, n, k)
    assert (root is not None) == accepted


def _structured_family(rng, v_dim, k):
    """Quaternion blocks (or random forms past the third), mixed by a
    random k x k matrix and moved by a random congruence of V."""
    blocks = [I_L, J_L, K_L]
    if v_dim == 8:
        scales = [rng.choice((1, 2, 3)) for _ in blocks]
        blocks = [Matrix([tuple(r) + (F(0),) * 4 for r in m.entries]
                         + [(F(0),) * 4 + tuple(c * s for c in r)
                            for r in m.entries])
                  for m, s in zip(blocks, scales)]
    psis = blocks[:k] + [_random_two_form(rng, v_dim) for _ in range(k - 3)]
    mixing = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
    psis = [sum((m * F(c) for m, c in zip(psis[1:], row[1:])),
                psis[0] * F(row[0])) for row in mixing]
    p = Matrix([[F(rng.choice((0, 0, 1, -1)) if i != j else rng.choice((1, 2)))
                 for j in range(v_dim)] for i in range(v_dim)])
    return [p.transpose() * m * p for m in psis]


def _random_two_form(rng, v_dim):
    rows = [[F(0)] * v_dim for _ in range(v_dim)]
    for i in range(v_dim):
        for j in range(i + 1, v_dim):
            rows[i][j] = F(rng.randint(-2, 2))
            rows[j][i] = -rows[i][j]
    return Matrix(rows)


def _seeded_family(seed, v_dim, k, structured):
    rng = random.Random(seed)
    if structured:
        return _structured_family(rng, v_dim, k)
    return [_random_two_form(rng, v_dim) for _ in range(k)]


def _candidate_or_none(psis):
    try:
        return KSymplecticCandidate(tuple(psis))
    except ValidationError:
        return None  # a dependent family


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([4, 8]), st.integers(1, 5),
       st.booleans())
def test_quadric_root_matches_factorization_on_families(seed, v_dim, k,
                                                        structured):
    # what verify_k_symplectic's _quadric_root returns, against sympy's
    # factorization of the symbolic Pfaffian
    cand = _candidate_or_none(_seeded_family(seed, v_dim, k, structured))
    if cand is None:
        return
    roots = []

    def spy(*args):
        roots.append(_quadric_root(*args))
        return roots[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ksympl, "_quadric_root", spy)
        rep = verify_k_symplectic(cand)
    p = symbolic.pfaffian(symbolic.generic(cand.psis))
    if not p:
        assert not roots and rep.failure_reason == "NotGenericallySymplectic"
    else:
        assert roots == [factor_list_root(p, v_dim // 4, k)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([4, 8]), st.integers(1, 5),
       st.booleans())
def test_verify_matches_the_symbolic_oracle(seed, v_dim, k, structured):
    # verdict, quadric, scalar, rank and witness against verification on
    # the expanded Pfaffian; the numeric Pfaffian against the expansion
    # at every lattice point
    cand = _candidate_or_none(_seeded_family(seed, v_dim, k, structured))
    if cand is None:
        return
    assert _slots(verify_k_symplectic(cand)) == _slots(symbolic.verify(cand))
    p = symbolic.pfaffian(symbolic.generic(cand.psis))
    for w in _principal_lattice(k, v_dim // 2):
        assert pfaffian(_combination(cand, w)) == mp_eval(p, w)


@pytest.mark.parametrize("name", ["quaternion3", "quaternion3_doubled",
                                  "bad/k1_symplectic",
                                  "bad/wrong_rank_on_quadric", "octonion1",
                                  "octonion2", "octonion3", "octonion4",
                                  "octonion5"])
def test_verify_matches_the_symbolic_oracle_on_known_families(name):
    if name.startswith("octonion"):
        k = int(name[-1])
        psis = _octonion_family(random.Random(k), k)
    else:
        psis = build_candidate(load_problem_file(CORPUS / f"{name}.json")[1]).psis
    cand = KSymplecticCandidate(tuple(psis))
    rep = verify_k_symplectic(cand)
    assert _slots(rep) == _slots(symbolic.verify(cand))
    assert rep.ok == (name not in ("bad/k1_symplectic", "octonion1",
                                   "bad/wrong_rank_on_quadric"))


def test_pfaffian_self_checks(monkeypatch):
    # Pf^2 = det at the first point with p != 0, and Psi(v) invertible
    # there; neither can fail on a correct Pfaffian
    cand = quaternion_candidate()
    with monkeypatch.context() as patch:
        patch.setattr(ksympl, "det", lambda m: det(m) + 1)
        with pytest.raises(errors.InternalError, match="Pf\\^2 != det"):
            verify_k_symplectic(cand)
    with monkeypatch.context() as patch:
        patch.setattr(ksympl, "solve_blocks", lambda a, blocks: None)
        with pytest.raises(errors.InternalError, match="singular"):
            verify_k_symplectic(cand)
    assert verify_k_symplectic(cand).ok


def test_principal_lattice():
    assert _principal_lattice(1, 4) == [(4,)]
    assert _principal_lattice(3, 2) == [(2, 0, 0), (1, 1, 0), (1, 0, 1),
                                        (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    # C(2n + k - 1, k - 1) points: 70 at dim V = 8, k = 5
    assert len(_principal_lattice(5, 4)) == 70


def test_clifford_quaternion():
    cand = quaternion_candidate()
    rep = verify_k_symplectic(cand)
    cliff = clifford_operators(cand, rep, (1, 0, 0))
    assert isinstance(cliff, CliffordResult)
    a1, a2 = cliff.operators
    ident = Matrix.identity(4)
    assert a1 * a1 == ident * F(-1)
    assert a2 * a2 == ident * F(-1)
    assert a1 * a2 + a2 * a1 == Matrix.zeros(4, 4)
    assert cliff.squares == (F(-1), F(-1))


def test_clifford_doubled():
    cand = doubled_candidate()
    rep = verify_k_symplectic(cand)
    cliff = clifford_operators(cand, rep, (1, 0, 0))
    assert cliff.operators[0].rows == 8
    assert cliff.squares == (F(-1), F(-1))


def test_clifford_base_point_isotropic():
    cand = quaternion_candidate()
    rep = verify_k_symplectic(cand)
    with pytest.raises(BasePointIsotropic):
        clifford_operators(cand, rep, (0, 0, 0))


def test_clifford_relations_fail_on_imposter():
    # a family that is not k-symplectic, presented with a forged report:
    # the runtime relation check refuses it
    from hodgekit.errors import RelationsFail
    from hodgekit.ksympl import KSymplecticReport

    degenerate = fmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    cand = KSymplecticCandidate((I_L, degenerate))
    forged = KSymplecticReport(True, Matrix.identity(2), F(1), 2, None, None,
                               None)
    with pytest.raises(RelationsFail):
        clifford_operators(cand, forged, (1, 0))


def test_clifford_relations_fail_to_anticommute():
    # I_L + I_L, J_L + J_L and J_L + (-J_L) (direct sums) under a forged
    # report: A_1 = -K_L + -K_L and A_2 = -K_L + K_L both square to -I,
    # but A_1 A_2 + A_2 A_1 = 2(-I + I)
    from hodgekit.errors import RelationsFail
    from hodgekit.ksympl import KSymplecticReport

    cand = KSymplecticCandidate((direct_sum(I_L, I_L), direct_sum(J_L, J_L),
                                 direct_sum(J_L, J_L * F(-1))))
    forged = KSymplecticReport(True, Matrix.identity(3), F(1), 4, None, None,
                               None)
    with pytest.raises(RelationsFail, match="operators fail to anticommute"):
        clifford_operators(cand, forged, (1, 0, 0))


def _slots(obj):
    return tuple(getattr(obj, name) for name in type(obj).__slots__)


def test_ksympl_multiplies_and_adds_no_matrices(monkeypatch):
    # with every Matrix x Matrix product and Matrix + Matrix sum raising,
    # and scalar products still allowed, cmd_ksympl on both quaternion
    # files and the checks of an accepted k = 5 octonion family give what
    # they give unpatched
    cands = [build_candidate(load_problem_file(CORPUS / f"{name}.json")[1])
             for name in ("quaternion3", "quaternion3_doubled")]
    octonion = KSymplecticCandidate(tuple(_octonion_family(random.Random(0),
                                                           5)))

    def run():
        reports = [cmd_ksympl(cand).sections for cand in cands]
        rep = verify_k_symplectic(octonion)
        base = congruence_diagonal(rep.quadric)[1].entries[0]
        return (reports, _slots(rep),
                _slots(clifford_operators(octonion, rep, base)))

    scalar_mul = Matrix.__mul__

    def mul(self, other):
        if isinstance(other, Matrix):
            raise AssertionError("Matrix x Matrix product")
        return scalar_mul(self, other)

    def add(self, other):
        raise AssertionError("Matrix + Matrix sum")

    with monkeypatch.context() as patch:
        patch.setattr(Matrix, "__mul__", mul)
        patch.setattr(Matrix, "__add__", add)
        patched = run()
    assert patched[1][0]
    assert patched == run()


def test_ksympl_reads_the_family_on_integers(capsys):
    # the family's flat form, every combination sum c_i Psi_i and every
    # Pfaffian value keep integer rows; 2907 Fractions were built here
    # when the combinations summed Fractions entry by entry, and 1331
    # when the Pfaffian was expanded with Fraction coefficients
    calls = []
    new = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        calls.append(cls)
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        code = main(["ksympl", str(CORPUS / "quaternion3_doubled.json"),
                     "--json"])
    finally:
        Fraction.__new__ = new
    assert code == 0 and json.loads(capsys.readouterr().out)["status"] == "ok"
    assert 0 < len(calls) < 1000


def test_clifford_frame_on_hyperbolic_quadric():
    # Pfaffian t0^2 + t1 t2: past the base point e_0 the complement is a
    # hyperbolic plane, spanned by two isotropic vectors
    cand = KSymplecticCandidate((two_form({(0, 3): 1, (1, 2): 1}),
                                 two_form({(0, 1): 1}), two_form({(2, 3): 1})))
    rep = verify_k_symplectic(cand)
    assert rep.ok
    assert rep.quadric == fmat([[1, 0, 0], [0, 0, F(1, 2)], [0, F(1, 2), 0]])
    report = cmd_ksympl(cand)
    assert report.exit_code == 0
    clifford = report.machine["sections"]["clifford"]
    assert clifford["base_point"] == ["1", "0", "0"]
    assert clifford["operator_squares"] == ["-1", "1/4"]


FANO = ((1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2),
        (7, 1, 3))


def octonion_units():
    """Left multiplications by e_1..e_7 in the octonions, where
    e_a e_b = e_c for each cyclic Fano triple (a, b, c)."""
    table = {}
    for a, b, c in FANO:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[x, y], table[y, x] = (1, z), (-1, z)
    units = []
    for a in range(1, 8):
        m = [[0] * 8 for _ in range(8)]
        m[a][0], m[0][a] = 1, -1
        for b in range(1, 8):
            if b != a:
                s, c = table[a, b]
                m[c][b] = s
        units.append(fmat(m))
    return units


def _unitriangular(rng, n):
    return fmat([[int(i == j) if i >= j else rng.randint(-2, 2)
                  for j in range(n)] for i in range(n)])


def _octonion_family(rng, k):
    """k octonion units, mixed by a unitriangular k x k matrix and moved
    by a unitriangular congruence of V."""
    units = rng.sample(octonion_units(), k)
    mixing = _unitriangular(rng, k).entries
    p = _unitriangular(rng, 8)
    psis = [sum((m * c for m, c in zip(units[1:], row[1:])), units[0] * row[0])
            for row in mixing]
    return [p.transpose() * m * p for m in psis]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["random", "octonion"]),
       st.integers(2, 5))
@example(1779, "random", 3)  # the kernel basis of q(base, .) is isotropic
def test_clifford_frame_is_q_orthogonal(seed, kind, k):
    rng = random.Random(seed)
    if kind == "random":
        psis = [_random_two_form(rng, 4) for _ in range(3)]
    else:
        psis = _octonion_family(rng, k)
    try:
        cand = KSymplecticCandidate(tuple(psis))
    except ValidationError:
        return  # a dependent random family
    rep = verify_k_symplectic(cand)
    if not rep.ok:
        return
    q = rep.quadric
    base = congruence_diagonal(q)[1].entries[0]
    cliff = clifford_operators(cand, rep, base)
    frame, squares = cliff.orth_basis, cliff.squares
    assert len(squares) == len(frame) == cand.k - 1
    norm0 = bilinear(q, base, base)
    for i, w in enumerate(frame):
        assert bilinear(q, w, base) == 0
        assert all(bilinear(q, w, v) == 0 for v in frame[:i])
        assert squares[i] * norm0 == -bilinear(q, w, w)


def _invertible(rng, k):
    """A seeded k x k matrix of nonzero determinant, with entries p/q for
    |p| <= 2 and 1 <= q <= 3."""
    while True:
        a = fmat([[F(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(k)]
                  for _ in range(k)])
        if det(a) != 0:
            return a


def _family(name, rng):
    if name == "random8":
        return [_random_two_form(rng, 8) for _ in range(3)]
    if name == "octonion8":
        return _octonion_family(rng, 5)
    doc = load_problem_file(CORPUS / f"{name}.json")[1]
    return list(build_candidate(doc).psis)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", ["quaternion3", "quaternion3_doubled",
                                  "random8", "octonion8"])
def test_verdict_invariant_under_family_basis_change(name, seed):
    # Psi'_i = sum_j A_ij Psi_j for an invertible A spans the same pencil:
    # its Pfaffian is c q(A^T t)^n, so the verdict, the failure reason and
    # the rank on the quadric stay the same, and an accepted family keeps
    # nonzero Clifford squares and dim V divisible by the Clifford bound;
    # A has entries p/q, so the moved family's flat rows are not integral
    rng = random.Random(seed)
    psis = _family(name, rng)
    k = len(psis)
    moved = [sum((m * c for m, c in zip(psis[1:], row[1:])), psis[0] * row[0])
             for row in _invertible(rng, k).entries]
    base = verify_k_symplectic(KSymplecticCandidate(tuple(psis)))
    cand = KSymplecticCandidate(tuple(moved))
    assert any(d > 1 for _, d in _integer_rows(cand.flat))
    rep = verify_k_symplectic(cand)
    assert (rep.ok, rep.failure_reason, rep.rank_on_quadric) == \
        (base.ok, base.failure_reason, base.rank_on_quadric)
    assert rep.ok == (name != "random8")
    if rep.ok:
        point = congruence_diagonal(rep.quadric)[1].entries[0]
        cliff = clifford_operators(cand, rep, point)
        assert len(cliff.squares) == k - 1
        assert all(sq != 0 for sq in cliff.squares)
        assert cand.v_dim % divisibility_bound(k) == 0


def test_divisibility_bound():
    assert divisibility_bound(1) == 1
    assert divisibility_bound(3) == 2
    assert divisibility_bound(22) == 1024
    with pytest.raises(ValidationError):
        divisibility_bound(0)


def test_accepted_candidates_satisfy_divisibility():
    for cand in (quaternion_candidate(), doubled_candidate()):
        rep = verify_k_symplectic(cand)
        assert rep.ok
        assert cand.v_dim % divisibility_bound(cand.k) == 0


def test_torus_bound():
    assert torus_bound(20) == 1024
    assert torus_bound(0) == 1
    assert torus_bound(3) == 4
    assert check_torus(3, 4)
    assert not check_torus(3, 6)


def test_torus_bound_monotone_and_paired():
    values = [torus_bound(d) for d in range(0, 12)]
    assert values == sorted(values)
    for j in range(1, 6):
        assert torus_bound(2 * j) == torus_bound(2 * j - 1)


def test_subvariety_bound():
    assert subvariety_bound(0, 1) == 2
    assert subvariety_bound(20, 1) == 22
    assert subvariety_bound(3, 2) == 10
    with pytest.raises(ValidationError):
        subvariety_bound(-1, 1)



NONSQUARES = (-7, -3, -2, -1, 2, 3, 5, 6)
MATRIX = st.lists(st.lists(st.integers(-1, 1), min_size=4, max_size=4),
                  min_size=3, max_size=3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(NONSQUARES), MATRIX, MATRIX,
       st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                min_size=2, max_size=2))
@example(2, [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]],
         [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]], [(1, 0), (0, 1)])
def test_rank_on_the_quadric_over_q_matches_the_field_rank(mu, m0, m1, point):
    # the combination at a point a + s b over Q(s), s^2 = mu, against the
    # generic elimination over Q(s); the example is [[s, 2], [1, s]] at
    # mu = 2, of rank 1 over Q(s) and rank 2 at every rational point
    psis = (fmat(m0), fmat(m1))
    field = nf_create([-mu, 0, 1])
    s = field.gen()
    coords = tuple(field.from_rational(a) + s * b for a, b in point)
    lifted = Matrix(tuple(
        tuple(sum((c * psi.entries[i][j] for c, psi in zip(coords, psis)),
                  field.zero()) for j in range(4)) for i in range(3)))
    flat = Matrix.from_int_rows(tuple(map(_flatten, psis)), 12)
    cand = SimpleNamespace(psis=psis, flat=flat, cols=flat.transpose())
    assert (_rank_at(cand, coords, field.defining_poly)
            == reference.rank(lifted))
    assert _combination(cand, coords) == lifted
    rational = tuple(F(a) for a, _ in point)
    assert _rank_at(cand, rational, None) == rank(_combination(cand, rational))
