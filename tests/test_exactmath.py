"""Tests for exact rationals, number fields, embeddings and linear algebra."""

import cmath
import json
import math
import random
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hodgekit.errors import (ConjugationNotInternal, DegreeTooLarge,
                             InternalError, NotMonic, NotRealValued, Reducible,
                             TooLarge)
from hodgekit.exactmath import (ComplexEmbedding, FieldElement, Matrix,
                                certified_sign, conjugation_automorphism, det,
                                inverse, kernel, mult_matrix, nf_create,
                                nf_embeddings, rank, roots_in_field, rref,
                                solve_linear)
from hodgekit.exactmath import linalg, numberfield, relations, rootiso
from hodgekit.exactmath import unipoly as up
from hodgekit.exactmath.numberfield import (_GUESS_DIGITS, _embedded_root_is,
                                            _guess_conjugation,
                                            conjugate_vector)
from hodgekit.exactmath.rootiso import RootDisk, isolate_nonreal_roots, root_disks
import reference_elimination as reference

F = Fraction
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def power(x, n):
    """x**n for a field element x and n >= 0, by repeated products."""
    result = x.parent.one()
    for _ in range(n):
        result = result * x
    return result


def field_trace(a):
    """Trace of the field element a down to Q: the sum of the diagonal of
    its multiplication matrix."""
    m = mult_matrix(a)
    return sum(m.entries[i][i] for i in range(m.rows))


def conjugate_element(v, emb):
    """conjugate_vector of the one element v."""
    return conjugate_vector((v,), emb)[0]


def box(disk):
    """Bounding square ((re lo, re hi), (im lo, im hi)) of the disk
    |w - (X + iY)/D| <= R/D, given as (X, Y, R, D) or as a RootDisk."""
    if isinstance(disk, RootDisk):
        disk = disk.x, disk.y, disk.r, 2**disk.scale
    x, y, r, d = disk
    return (F(x - r, d), F(x + r, d)), (F(y - r, d), F(y + r, d))


def boxes_disjoint(a, b):
    return any(p[1] < q[0] or q[1] < p[0] for p, q in zip(a, b))


def apply_automorphism(tau_gen, v):
    """Oracle: the automorphism gen -> tau_gen applied to v by Horner's
    rule in the field."""
    acc = v.parent.zero()
    for c in reversed(v.coords):
        acc = acc * tau_gen + c
    return acc

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


def test_nf_create_identity_case():
    field = nf_create([0, 1])  # x
    assert field.degree == 1
    assert field.gen() == field.zero()
    embs = nf_embeddings(field)
    assert len(embs) == 1 and embs[0].is_real


def test_nf_create_gaussian():
    field = nf_create([1, 0, 1])
    assert field.degree == 2
    embs = nf_embeddings(field)
    assert all(not e.is_real for e in embs)
    assert embs[0].conjugate_index == 1 and embs[1].conjugate_index == 0


def test_nf_create_quartic_is_irreducible():
    # x^4 - x^2 - 1 does not factor over Q (checked against the
    # factorization oracle), so it defines a degree-4 field
    field = nf_create([-1, 0, -1, 0, 1])
    assert field.degree == 4


def test_nf_create_rejections():
    with pytest.raises(NotMonic):
        nf_create([1, 0, 2])
    with pytest.raises(Reducible) as err:
        nf_create([-1, 0, 1])  # x^2 - 1
    assert err.value.witness is not None
    assert up.degree(err.value.witness) == 1
    with pytest.raises(DegreeTooLarge):
        nf_create([2] + [0] * 16 + [1])
    with pytest.raises(DegreeTooLarge):
        nf_create([5])


def test_embeddings_sqrt2():
    field = nf_create([-2, 0, 1])
    embs = nf_embeddings(field)
    assert [e.is_real for e in embs] == [True, True]
    assert [e.conjugate_index for e in embs] == [0, 1]
    # ordered increasingly: first box is negative, second positive
    assert box(embs[0].root)[0][1] < 0 < box(embs[1].root)[0][0]


def test_embeddings_cubic():
    field = nf_create([-2, 0, 0, 1])
    embs = nf_embeddings(field)
    kinds = [e.is_real for e in embs]
    assert kinds == [True, False, False]
    assert embs[1].conjugate_index == 2
    assert embs[2].conjugate_index == 1


def _mignotte(n, a):
    """x^n - 2(ax - 1)^2, constant first: irreducible by Eisenstein at 2,
    with two real roots about sqrt2 a^(-n/2 - 1) apart near 1/a."""
    return [-2, 4 * a, -2 * a * a] + [0] * (n - 3) + [1]


@pytest.mark.parametrize("coeffs", [
    [1, 0, 1], [-2, 0, 1], [-2, 0, 0, 1], [9, 0, -2, 0, 1],
    [-1, 0, -1, 0, 1], [1, 1, 1, 1, 1],  # 5th cyclotomic
    _mignotte(8, 10), _mignotte(16, 100), _mignotte(16, 1000),
    [10**12, 0, 1], [F(1, 10**12), 0, 1],
])
def test_embedding_count_invariant(coeffs):
    start = time.monotonic()
    field = nf_create(coeffs)
    embs = nf_embeddings(field)
    assert time.monotonic() - start < 1
    reals = sum(1 for e in embs if e.is_real)
    pairs = sum(1 for e in embs if not e.is_real)
    assert pairs % 2 == 0
    assert reals + pairs == field.degree
    # conjugation is an involution fixing exactly the real embeddings
    for e in embs:
        assert embs[e.conjugate_index].conjugate_index == e.index
        assert (e.conjugate_index == e.index) == e.is_real
    # boxes of distinct embeddings are disjoint
    for a in embs:
        for b in embs:
            if a.index != b.index:
                assert boxes_disjoint(box(a.root), box(b.root))


def test_field_arithmetic():
    field = nf_create([9, 0, -2, 0, 1])
    th = field.gen()
    sqrt2 = (5 * th - power(th, 3)) / 6
    i_el = (power(th, 3) + th) / 6
    assert sqrt2 * sqrt2 == 2
    assert i_el * i_el == -1
    assert sqrt2 + i_el == th
    assert power(sqrt2 * i_el, 2) == -2
    assert th.inverse() * th == field.one()
    assert 1 / th == th.inverse()
    assert Fraction(3, 2) / th * th == Fraction(3, 2)
    with pytest.raises(ZeroDivisionError):
        1 / field.zero()
    assert field_trace(sqrt2) == 0
    assert field_trace(field.from_rational(Fraction(5, 2))) == 10


@pytest.mark.parametrize("coeffs", [
    [-2, 0, 1], [1, -3, 0, 1], [1] + [0] * 7 + [1], [5, 0, 5, 0, 1],
], ids=["x^2-2", "x^3-3x+1", "x^8+1", "x^4+5x^2+5"])
def test_power_sums_are_the_traces_of_the_powers(coeffs):
    # Newton's identities on the coefficients give Tr(gen**k), the trace
    # of the k-th power of the companion matrix, for k <= 2e - 2
    field = nf_create(coeffs)
    e = field.degree
    sums = up.power_sums(field.defining_poly, 2 * e - 2)
    assert sums == [field_trace(power(field.gen(), k))
                    for k in range(2 * e - 1)]
    assert all(type(s) is Fraction for s in sums)


def test_fields_from_one_polynomial_are_one_field():
    # fields are values: the caches key on them and arithmetic checks
    # that both operands have one parent
    a, b = nf_create([2, 0, 1]), nf_create([2, 0, 1])
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != nf_create([3, 0, 1])
    assert a.gen() + b.gen() == a.element([0, 2])
    assert (a.gen() * b.gen()).parent == b


def test_certified_sign_examples():
    field = nf_create([-2, 0, 1])
    embs = nf_embeddings(field)
    assert certified_sign(field.zero(), embs[1]) == 0
    assert certified_sign(field.element([-1, 1]), embs[1]) == 1
    gauss = nf_create([1, 0, 1])
    gemb = nf_embeddings(gauss)[1]
    i_el = gauss.gen()
    # (1 + i)(1 - i) = 2, provably real at a complex embedding
    assert certified_sign((1 + i_el) * (1 - i_el), gemb) == 1
    with pytest.raises(NotRealValued):
        certified_sign(i_el, gemb)


def test_certified_sign_reevaluation_invariant():
    field = nf_create([9, 0, -2, 0, 1])
    emb = nf_embeddings(field)[3]
    th = field.gen()
    sqrt2 = (5 * th - power(th, 3)) / 6
    values = [sqrt2, sqrt2 - 1, sqrt2 - 2, 3 - 2 * sqrt2, sqrt2 * 7 - 10]
    fresh = [certified_sign(v, emb) for v in values]
    emb.eval_box(sqrt2, Fraction(1, 2**512))  # refine the embedding further
    assert [certified_sign(v, emb) for v in values] == fresh
    assert 0 not in fresh


def test_certified_sign_ramps_past_64_bits(monkeypatch):
    field = nf_create([9, 0, -2, 0, 1])
    emb = nf_embeddings(field)[3]
    th = field.gen()
    sqrt2 = (5 * th - power(th, 3)) / 6
    with localcontext() as ctx:
        ctx.prec = 80
        r = Fraction(Decimal(2).sqrt()).limit_denominator(10**40)
    calls = []
    eval_box = ComplexEmbedding.eval_box

    def spy(self, element, width):
        calls.append((element, width))
        return eval_box(self, element, width)

    monkeypatch.setattr(ComplexEmbedding, "eval_box", spy)
    # |sqrt2 - r| is about 10**-80, so 64 bits cannot settle its sign
    v = sqrt2 - r
    assert certified_sign(v, emb) == 1
    ramp = [w for el, w in calls if el == v]
    assert ramp == [Fraction(1, 2**bits) for bits in (64, 128, 256)]
    assert certified_sign(r - sqrt2, emb) == -1
    assert certified_sign(sqrt2 * sqrt2 - 2, emb) == 0


@pytest.mark.parametrize("bits", [5000, 20000])
@pytest.mark.parametrize("step", [0, 1])
def test_certified_sign_of_pell_difference(bits, step):
    # p + q sqrt2 is a power of the unit 1 + sqrt2, so p - q sqrt2 =
    # (p^2 - 2q^2) / (p + q sqrt2) is about 2**-bits in size, with the
    # sign of the norm p^2 - 2q^2 = +-1; consecutive powers alternate it
    field = nf_create([-2, 0, 1])
    plus = nf_embeddings(field)[1]
    p, q = 1, 1
    while q.bit_length() < bits:
        p, q = p + 2 * q, p + q
    for _ in range(step):
        p, q = p + 2 * q, p + q
    want = 1 if p * p - 2 * q * q > 0 else -1
    assert certified_sign(field.element([p, -q]), plus) == want
    assert certified_sign(field.element([-p, q]), plus) == -want


def test_sign_ramp_walks_one_newton_chain(monkeypatch):
    # the doubling ramp of certified_sign on a value about 2**-20000 costs
    # no more Newton steps than one refinement to its last width
    field = nf_create([-2, 0, 1])
    emb = nf_embeddings(field)[1]
    p, q = 1, 1
    while q.bit_length() < 20000:
        p, q = p + 2 * q, p + q
    want = 1 if p * p - 2 * q * q > 0 else -1
    steps, widths = [], []
    newton, eval_box = RootDisk._newton_step, ComplexEmbedding.eval_box

    def spy_step(self):
        steps.append(self.scale)
        return newton(self)

    def spy_box(self, element, width):
        widths.append(width)
        return eval_box(self, element, width)

    monkeypatch.setattr(RootDisk, "_newton_step", spy_step)
    monkeypatch.setattr(ComplexEmbedding, "eval_box", spy_box)
    # fresh disks, without a chain computed by earlier tests
    d = emb.root
    fresh = ComplexEmbedding(emb.parent, emb.index,
                             RootDisk(d.poly, d.x, d.y, d.r, d.scale),
                             emb.is_real, emb.conjugate_index)
    assert certified_sign(field.element([p, -q]), fresh) == want
    assert len(widths) > 1
    ramp = len(steps)
    steps.clear()
    RootDisk(d.poly, d.x, d.y, d.r, d.scale).refined_below(widths[-1])
    assert 0 < ramp <= len(steps)


def test_conjugation_automorphism_quartic():
    field = nf_create([9, 0, -2, 0, 1])
    th = field.gen()
    sqrt2 = (5 * th - power(th, 3)) / 6
    i_el = (power(th, 3) + th) / 6
    tau = conjugation_automorphism(field, 3)
    assert tau is not None
    assert apply_automorphism(tau, sqrt2) == sqrt2
    assert apply_automorphism(tau, i_el) == -i_el
    assert len(roots_in_field(field)) == 4


def test_conjugation_not_internal_for_pure_cubic():
    # Q(cbrt2) embedded complexly is not conjugation stable
    field = nf_create([-2, 0, 0, 1])
    assert conjugation_automorphism(field, 1) is None
    assert conjugation_automorphism(field, 0) == field.gen()
    for emb in nf_embeddings(field)[1:]:
        assert conjugation_automorphism(field, emb.index) is None
        with pytest.raises(ConjugationNotInternal):
            conjugate_element(field.gen(), emb)


def _trager_conjugation(field, emb):
    hits = [r for r in roots_in_field(field)
            if _embedded_root_is(r, emb, emb.conjugate_index)]
    assert len(hits) == 1
    return hits[0]


def _no_trager(field):
    raise AssertionError("the certified guess fell back to Trager")


# x^8 - 2(11x - 1)^2: no guess certifies tau at its nonreal embeddings,
# and its Trager norms are of degree 64
MIGNOTTE_8_11 = _mignotte(8, 11)


def test_trager_finds_no_conjugation_at_a_nonreal_mignotte_embedding():
    field = nf_create(MIGNOTTE_8_11)
    assert not nf_embeddings(field)[4].is_real
    assert conjugation_automorphism(field, 4) is None


def test_trager_search_is_capped_before_sympy_loads(monkeypatch):
    # e = 10: the norm would have degree 100 > 64; sympy cannot be
    # imported here, so the cap is checked first
    field = nf_create(mignotte(10, 11))
    monkeypatch.setitem(sys.modules, "sympy", None)
    with pytest.raises(TooLarge, match="cap 64"):
        roots_in_field(field)
    with pytest.raises(TooLarge):
        conjugation_automorphism(field, 4)


def _assert_roots_in_field(coeffs, count):
    field = nf_create(coeffs)
    roots = roots_in_field(field)
    assert len(roots) == count
    assert len(set(roots)) == len(roots) and field.gen() in roots
    assert all(up.eval_at(field.defining_poly, r).is_zero() for r in roots)


# defining polynomial -> the known number of its roots in its own field
ROOTS_IN_FIELD = {
    (-2, 0, 0, 1): 1,               # Q(cbrt 2) is real, not normal
    (9, 0, -2, 0, 1): 4,            # Q(sqrt 2, i), Galois
    (3,) + (0,) * 5 + (1,): 6,      # Q(zeta_3, cbrt 3), Galois
    (1,) + (0,) * 7 + (1,): 8,      # Q(zeta_16), Galois
    tuple(MIGNOTTE_8_11): 1,        # no automorphism but the identity
}


@pytest.mark.parametrize("coeffs", list(ROOTS_IN_FIELD))
def test_roots_in_field_match_sympy_factorization(coeffs):
    # oracle: the known number of roots; each is an exact root, they are
    # distinct, and the generator is among them
    _assert_roots_in_field(coeffs, ROOTS_IN_FIELD[coeffs])


@pytest.mark.parametrize("coeffs, count", [
    # x -> 2x applied to x^4 - 2x^2 + 9: Q(sqrt 2, i) again
    ([F(9, 16), 0, F(-1, 2), 0, 1], 4),
    ([F(1, 3), F(1, 2), 0, 0, 0, 0, 1], 1),
    ([F(-1, 2), 0, 0, 1], 1)])      # Q(cbrt 4), not normal
def test_roots_in_field_with_non_integral_coefficients(coeffs, count):
    _assert_roots_in_field(coeffs, count)


def test_conjugation_not_internal_with_non_integral_coefficients():
    # x^3 - 1/2, whose complex roots are not in the real field Q(cbrt 4)
    field = nf_create([F(-1, 2), 0, 0, 1])
    nonreal = [emb for emb in nf_embeddings(field) if not emb.is_real]
    assert len(nonreal) == 2
    for emb in nonreal:
        assert conjugation_automorphism(field, emb.index) is None
        with pytest.raises(ConjugationNotInternal):
            conjugate_vector((field.gen(),), emb)


def test_conjugation_fallback_when_guess_cannot_certify(monkeypatch):
    # x^4 - 2: conjugation fixes the real embeddings but not the two
    # complex ones, so no single interpolant g(r) = conj(r) is rational;
    # with the one-embedding relation guess switched off as well, tau
    # comes from Trager's search
    field = nf_create([-2, 0, 0, 0, 1])
    embs = nf_embeddings(field)
    for digits in _GUESS_DIGITS:
        g = _guess_conjugation(field, digits)
        assert g is None or not up.eval_at(field.defining_poly, g).is_zero()
    calls = []

    def counted(f):
        calls.append(f)
        return roots_in_field(f)

    monkeypatch.setattr(numberfield, "roots_in_field", counted)
    monkeypatch.setattr(relations, "relation_guess", lambda emb, digits: None)
    for emb in embs:
        tau = conjugation_automorphism.__wrapped__(field, emb.index)
        if emb.is_real:
            assert tau == field.gen()
        else:
            assert tau == -field.gen()
            assert tau == _trager_conjugation(field, emb)
    assert len(calls) == sum(1 for emb in embs if not emb.is_real)


# Q(r + i) with r^2 = -3 sqrt 2, the splitting field of x^4 - 18 (its
# Galois group is dihedral of order 8).  tau(gen) as Trager's search
# finds it: -gen where sigma(r) is imaginary (embeddings 2 to 5), and
# (1899 x - 235 x^3 + 3 x^5 + 5 x^7) / 748 where sigma(r) is real
TOTALLY_REAL_SQRT2_FIELD = (289, 0, 220, 0, -30, 0, 4, 0, 1)
TAU_WHERE_R_IS_REAL = (0, F(1899, 748), 0, F(-235, 748), 0, F(3, 748), 0,
                       F(5, 748))


def test_relation_guess_certifies_where_conjugation_does_not_commute(
        monkeypatch):
    # conjugation is a reflection of the dihedral group, not central, so
    # the interpolant of r -> conj(r) is no automorphism, and tau comes
    # from the integer relation at the chosen embedding, never Trager
    monkeypatch.setattr(numberfield, "roots_in_field", _no_trager)
    field = nf_create(TOTALLY_REAL_SQRT2_FIELD)
    gen = field.gen()
    for digits in _GUESS_DIGITS:
        g = _guess_conjugation(field, digits)
        assert g is None or not up.eval_at(field.defining_poly, g).is_zero()
    for emb in nf_embeddings(field):
        tau = conjugation_automorphism.__wrapped__(field, emb.index)
        want = (-gen if emb.index in (2, 3, 4, 5)
                else field.element(TAU_WHERE_R_IS_REAL))
        assert tau == want
        assert apply_automorphism(tau, tau) == gen
    quartic = nf_create([-2, 0, 0, 0, 1])
    for emb in nf_embeddings(quartic)[2:]:
        assert (conjugation_automorphism.__wrapped__(quartic, emb.index)
                == -quartic.gen())


def test_conjugation_guess_rejects_the_dihedral_octic_before_field_work():
    # its worst sum lies about 2^-3 from an integer at every precision,
    # far outside 2^-(bits // 2), so no guess reaches the field division
    field = nf_create(TOTALLY_REAL_SQRT2_FIELD)
    for digits in _GUESS_DIGITS:
        assert _guess_conjugation(field, digits) is None


def _gram_schmidt(rows):
    """Oracle: the squared norms of the Gram-Schmidt vectors and the
    coefficients mu[k][j], in Fractions."""
    star, norms, mu = [], [], []
    for k, row in enumerate(rows):
        v = [F(c) for c in row]
        mu.append([])
        for j in range(k):
            m = sum(F(a) * b for a, b in zip(row, star[j])) / norms[j]
            mu[k].append(m)
            v = [a - m * b for a, b in zip(v, star[j])]
        star.append(v)
        norms.append(sum(c * c for c in v))
    return norms, mu


@pytest.mark.parametrize("seed", range(6))
def test_lll_reduce_is_a_reduced_basis_of_the_same_lattice(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    cols = n + rng.randint(0, 2)
    while True:
        rows = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(n)]
        # a near-dependent pair forces swaps
        rows[-1] = [a * 7 + rng.randint(-1, 1) for a in rows[0]]
        if rank(Matrix(tuple(tuple(F(c) for c in r) for r in rows))) == n:
            break
    reduced = relations.lll_reduce(rows)
    norms, mu = _gram_schmidt(reduced)
    assert all(abs(m) <= F(1, 2) for ms in mu for m in ms)
    for k in range(1, n):
        assert norms[k] >= (F(3, 4) - mu[k][k - 1]**2) * norms[k - 1]
    # the same lattice: each basis is an integer combination of the other
    mine = Matrix(tuple(tuple(F(c) for c in r) for r in rows))
    theirs = Matrix(tuple(tuple(F(c) for c in r) for r in reduced))
    for a, b in ((mine, theirs), (theirs, mine)):
        sol = linalg.solve_blocks(b.transpose(), (a.transpose(),))
        assert sol is not None
        assert all(c.denominator == 1 for row in sol[0].entries for c in row)


@pytest.mark.parametrize("coeffs", [
    [1, 0, 1], [9, 0, -2, 0, 1], [144, 0, -8, 0, 1], [1, 0, 0, 0, 1],
    [1, 0, 0, 0, 0, 0, 0, 0, 1],
])
def test_certified_conjugation_matches_trager(coeffs, monkeypatch):
    field = nf_create(coeffs)
    nonreal = [emb for emb in nf_embeddings(field) if not emb.is_real]
    trager = [_trager_conjugation(field, emb) for emb in nonreal]
    monkeypatch.setattr(numberfield, "roots_in_field", _no_trager)
    for emb, want in zip(nonreal, trager):
        tau = conjugation_automorphism.__wrapped__(field, emb.index)
        assert tau == want
        assert apply_automorphism(tau, tau) == field.gen()


def test_certified_conjugation_at_degree_cap(monkeypatch):
    # x^16 + 1: the Trager norm factorization takes minutes here
    field = nf_create([1] + [0] * 15 + [1])
    emb = nf_embeddings(field)[0]
    monkeypatch.setattr(numberfield, "roots_in_field", _no_trager)
    start = time.monotonic()
    tau = conjugation_automorphism.__wrapped__(field, emb.index)
    elapsed = time.monotonic() - start
    assert tau == -power(field.gen(), 15)
    assert elapsed < 5


def test_solve_linear_identity():
    a = Matrix.identity(3)
    b = (F(3), F(-1), F(7))
    res = solve_linear(a, b)
    assert res.particular == b
    assert res.kernel.rows == 0


def test_solve_linear_zero_matrix():
    a = Matrix.zeros(2, 2)
    res = solve_linear(a, (F(0), F(0)))
    assert res.particular == (F(0), F(0))
    assert res.kernel.rows == 2


def test_solve_linear_inconsistent():
    a = Matrix(((F(1), F(0)), (F(1), F(0))))
    res = solve_linear(a, (F(1), F(2)))
    assert res.particular is None
    assert res.kernel.rows == 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(st.integers(-9, 9), min_size=5, max_size=5),
                min_size=5, max_size=5),
       st.lists(st.integers(-9, 9), min_size=5, max_size=5))
def test_solve_linear_self_check(rows, rhs):
    a = Matrix([[F(c) for c in r] for r in rows])
    b = tuple(F(c) for c in rhs)
    res = solve_linear(a, b)
    if res.particular is not None:
        assert a.vec(res.particular) == b
    for v in res.kernel.entries:
        assert all(c == 0 for c in a.vec(v))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers(1, 5), st.data())
def test_solve_linear_kernel_is_kernel(rows, cols, data):
    entries = st.integers(-3, 3)
    a = Matrix([[F(data.draw(entries)) for _ in range(cols)]
                for _ in range(rows)], cols=cols)
    b = tuple(F(data.draw(entries)) for _ in range(rows))
    assert solve_linear(a, b).kernel == kernel(a)


big_rationals = st.one_of(
    st.just(F(0)), st.integers(-3, 3).map(F),
    st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**12))


@st.composite
def rational_matrices(draw, square=False):
    """Rational matrices up to 5 x 6 with zero rows and columns, rank
    deficiency and denominators up to 10**12; 0 x n shapes included."""
    rows = draw(st.integers(0, 5))
    cols = rows if square else draw(st.integers(0, 6))
    m = [[draw(big_rationals) for _ in range(cols)] for _ in range(rows)]
    if rows >= 3 and draw(st.booleans()):
        c = draw(big_rationals)
        m[-1] = [a + c * b for a, b in zip(m[0], m[1])]
    if rows and draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [F(0)] * cols
    if cols and draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for r in m:
            r[j] = F(0)
    return Matrix(m, cols=cols)


def _outcome(fn, *args):
    """fn(*args), or the message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(rational_matrices())
def test_integer_rref_and_kernel_match_fraction_elimination(m):
    assert rref(m) == reference.rref(m)
    assert kernel(m) == reference.kernel(m)
    assert all(isinstance(c, Fraction) for r in rref(m)[0].entries for c in r)


@settings(max_examples=150, deadline=None)
@given(rational_matrices(square=True))
def test_integer_det_and_inverse_match_fraction_elimination(m):
    assert det(m) == reference.det(m)
    assert _outcome(inverse, m) == _outcome(reference.inverse, m)


FIELDS = {"Q(i)": nf_create([1, 0, 1]), "quartic": nf_create([-1, 0, -1, 0, 1])}


@st.composite
def vectors_for(draw, cols):
    """A vector of length cols: rational, or over Q(i) or the quartic
    x^4 - x^2 - 1 with some entries left rational."""
    kind = draw(st.sampled_from(("rational",) + tuple(FIELDS)))
    v = [draw(big_rationals) for _ in range(cols)]
    if kind == "rational":
        return tuple(v), None
    field = FIELDS[kind]
    for j in range(cols):
        if draw(st.booleans()):
            v[j] = field.element([draw(big_rationals)
                                  for _ in range(field.degree)])
    return tuple(v), field


def _coords(x, e):
    return x.coords if isinstance(x, FieldElement) else (x,) + (F(0),) * (e - 1)


@settings(max_examples=150, deadline=None)
@given(rational_matrices(), st.data())
def test_integer_vec_matches_entrywise_fraction_sums(m, data):
    v, field = data.draw(vectors_for(m.cols))
    out = m.vec(v)
    assert len(out) == m.rows
    if field is None or not any(isinstance(x, FieldElement) for x in v):
        assert out == tuple(sum((a * b for a, b in zip(r, v)), F(0))
                            for r in m.entries)
        assert all(type(c) is Fraction for c in out)
    else:
        e = field.degree
        assert all(type(c) is FieldElement and c.parent == field for c in out)
        assert [c.coords for c in out] == [
            tuple(sum((a * _coords(b, e)[k] for a, b in zip(r, v)), F(0))
                  for k in range(e)) for r in m.entries]
    with pytest.raises(ValueError, match="shape mismatch"):
        m.vec(v + (F(1),))


def test_integer_vec_shapes_and_zero_rows():
    i = FIELDS["Q(i)"].gen()
    assert Matrix.zeros(3, 0).vec(()) == (F(0),) * 3
    assert Matrix.zeros(0, 4).vec((F(1), i, F(2), i)) == ()
    zero = Matrix.zeros(2, 2).vec((i, F(1, 3)))
    assert zero == (FIELDS["Q(i)"].zero(),) * 2
    assert all(type(c) is FieldElement for c in zero)
    with pytest.raises(ValueError, match="different fields"):
        Matrix.identity(2).vec((i, FIELDS["quartic"].gen()))


def test_field_entry_matrix_takes_the_generic_vec():
    field = FIELDS["quartic"]
    g = field.gen()
    m = Matrix(((g, F(0), field.one()), (F(0), F(0), F(0)), (g * g, F(-2), g)))
    v = (F(3), g + 1, F(1, 7))
    with mock.patch.object(linalg, "_rational_vec",
                           side_effect=AssertionError("integer path")):
        out = m.vec(v)
    assert out == (3 * g + F(1, 7), F(0), 3 * g * g - 2 * (g + 1) + g / 7)


def test_integer_row_form_is_built_once_per_matrix():
    m = Matrix([[F(1, 2), F(0), F(3)], [F(-2, 3), F(5), F(1, 7)],
                [F(0), F(1, 10**12), F(1)]])
    i = FIELDS["Q(i)"].gen()
    v = (F(1), F(2, 5), F(3))
    converted = []

    def integer_row(row, real=linalg._integer_row):
        if row is not v:
            converted.append(row)
        return real(row)

    with mock.patch.object(linalg, "_integer_row", integer_row):
        for _ in range(3):
            m.vec(v)
            m.vec((i, F(1), i + 1))
            rref(m), det(m), kernel(m)
        # elimination results come with their integer rows
        red = rref(m)[0]
        red.vec((i, F(1), i + 1)), rref(red), det(red), kernel(red)
        red.transpose().vec(v)
        linalg.solve_blocks(m, (red,))[0].vec(v)
    assert sum(any(r is row for row in m.entries)
               for r in converted) == len(converted) == m.rows


def test_integer_rref_negative_pivots_and_deficient_rank():
    m = Matrix([[F(-2, 3), F(4), F(0)], [F(1, 10**12), F(-6, 10**12), F(0)],
                [F(0), F(0), F(0)]])
    assert rref(m) == reference.rref(m)
    red, pivots = rref(m)
    assert pivots == (0,) and red.entries[0] == (F(1), F(-6), F(0))
    assert det(m) == 0 and rank(m) == 1


def test_det_inverse_kernel():
    a = Matrix([[F(2), F(1)], [F(1), F(1)]])
    assert det(a) == 1
    assert inverse(a) * a == Matrix.identity(2)
    assert rank(a) == 2
    singular = Matrix([[F(1), F(2)], [F(2), F(4)]])
    assert det(singular) == 0
    ker = kernel(singular)
    assert ker.rows == 1
    assert all(c == 0 for c in singular.vec(ker.entries[0]))


def test_transpose_keeps_empty_shapes():
    assert (Matrix(((), (), ())).transpose().rows,
            Matrix(((), (), ())).transpose().cols) == (0, 3)
    assert (Matrix.zeros(0, 4).transpose().rows,
            Matrix.zeros(0, 4).transpose().cols) == (4, 0)


def test_solve_blocks():
    # a 3 x 2 matrix of rank 2: consistent blocks are solved, a block off
    # the column space and a matrix of lower rank give None
    a = Matrix([[F(1), F(2)], [F(0), F(1)], [F(1), F(3)]])
    x1 = Matrix([[F(1), F(0), F(-1)], [F(2, 3), F(1), F(0)]])
    x2 = Matrix([[F(5)], [F(-1, 2)]])
    assert linalg.solve_blocks(a, (a * x1, a * x2)) == (x1, x2)
    off = Matrix([[F(0)], [F(0)], [F(1)]])
    assert linalg.solve_blocks(a, (a * x1, off)) is None
    low = Matrix([[F(1), F(2)], [F(2), F(4)], [F(0), F(0)]])
    assert linalg.solve_blocks(low, (low * x2,)) is None
    with pytest.raises(ValueError, match="shape"):
        linalg.solve_blocks(a, (x2,))


def test_field_matrix_linear_algebra():
    field = nf_create([1, 0, 1])
    i_el = field.gen()
    one = field.one()
    a = Matrix(((one, i_el), (i_el, one)))
    assert reference.det(a) == field.from_rational(2)
    with pytest.raises(TypeError, match="rational"):
        det(a)
    # inverse is rational only too; the reference inverts over the field
    with pytest.raises(TypeError, match="rational"):
        inverse(a)
    assert reference.inverse(a) * a == Matrix.identity(2, one)


def test_elimination_takes_rational_matrices_only():
    # no elimination takes a matrix over a number field
    field = FIELDS["Q(i)"]
    a = Matrix(((field.one(), field.gen()), (field.gen(), field.one())))
    for fn in (rref, kernel, rank, linalg.row_space):
        with pytest.raises(TypeError, match="rref requires a rational matrix"):
            fn(a)
    with pytest.raises(TypeError, match="rref requires a rational matrix"):
        solve_linear(Matrix.identity(2), (field.gen(), F(1)))
    for blocks in ((a, (Matrix.identity(2),)), (Matrix.identity(2), (a,))):
        with pytest.raises(TypeError, match="requires rational matrices"):
            linalg.solve_blocks(*blocks)


# ---- certified embeddings and the irreducibility certificate ------------

def _gen_box(emb, bits=40):
    return box(emb.eval_box(emb.parent.gen(), F(1, 2**bits)))


def shifted_poly(coeffs, c):
    """f(x - c), constant first, by Horner's rule in x - c."""
    acc = ()
    for a in reversed(coeffs):
        acc = up.add(up.mul(acc, (-F(c), F(1))), (F(a),))
    return acc


@pytest.mark.parametrize("shift", [F(0), F(1, 3)])
def test_embeddings_of_purely_imaginary_roots(shift):
    # the roots of x^4 + 5x^2 + 5 are +-i sqrt((5 +- sqrt5)/2): all real
    # parts tie, so the order by imaginary part rests on the exact tie
    # decision; the shift moves the common real part off 0
    embs = nf_embeddings(nf_create(shifted_poly([5, 0, 5, 0, 1], shift)))
    assert [e.is_real for e in embs] == [False] * 4
    assert [e.conjugate_index for e in embs] == [3, 2, 1, 0]
    boxes = [_gen_box(e) for e in embs]
    assert all(re[0] <= shift <= re[1] for re, _ in boxes)
    ims = [im for _, im in boxes]
    assert ims[0][1] < -F(19, 10) < ims[0][0] + F(1, 10)
    assert ims[1][1] < -1 and ims[2][0] > 1
    assert all(a[1] < b[0] for a, b in zip(ims, ims[1:]))


def test_nonreal_order_with_real_parts_closer_than_tie_bits():
    # roots +-i and eps +- 2i with eps = 2**-600: the real parts overlap
    # until the disks are refined past 600 bits, short of the tie bound,
    # and only then do both roots of real part 0 come first
    eps = F(1, 2**600)
    f = up.mul((F(1), F(0), F(1)), (eps * eps + 4, -2 * eps, F(1)))
    ranked = isolate_nonreal_roots(f, 4)
    assert [conj for _, conj in ranked] == [1, 0, 3, 2]
    re_parts = [box(disk.refined_below(F(1, 2**700)))[0] for disk, _ in ranked]
    assert re_parts[1][1] < re_parts[2][0] <= eps <= re_parts[2][1]
    ims = [box(disk)[1] for disk, _ in ranked]
    assert ims[0][1] < 0 < ims[1][0] and ims[2][1] < -1 < 1 < ims[3][0]


@pytest.mark.parametrize("k", [600, 5000])
def test_tie_bits_pass_a_known_real_part_gap(k):
    # roots +-i and 2**-k +- 2i: real parts that still overlap count as
    # equal only past _tie_bits, so the bound must exceed the gap, and
    # the order puts the roots of real part 0 first
    eps = F(1, 2**k)
    f = up.mul((F(1), F(0), F(1)), (eps * eps + 4, -2 * eps, F(1)))
    disks, mirror = root_disks(f)
    assert rootiso._Ranking(f, disks, mirror)._tie_bits > k + 2
    assert [conj for _, conj in isolate_nonreal_roots(f, 4)] == [1, 0, 3, 2]


@pytest.mark.parametrize("a", [10**6 + 1, 10**12 + 1])
def test_mignotte_roots_are_separated(a):
    # f = x^16 - 2 (a x - 1)^2, irreducible by Eisenstein at 2, has two
    # real roots 1/a +- a^-9 / sqrt(2) + O(a^-24) and two more, beyond
    # the gap of about a^-9 that a cold Durand-Kerner start at every
    # ROOT_DIGITS level could not resolve for a = 10^12 + 1
    f = tuple(F(c) for c in [-2, 4 * a, -2 * a * a] + [0] * 13 + [1])
    field = nf_create(f)
    embs = nf_embeddings(field)
    reals = [emb.root for emb in embs if emb.is_real]
    assert len(embs) == 16 and len(reals) == 4
    chain = up.sturm_chain(f)
    assert up.sturm_count(chain, -up.root_bound(f), up.root_bound(f)) == 4
    near = (F(1, a) - F(1, a**9), F(1, a) + F(1, a**9))
    assert up.sturm_count(chain, *near) == 2
    inside = [b for b in map(box, reals)
              if near[0] < b[0][0] and b[0][1] < near[1]]
    assert len(inside) == 2 and boxes_disjoint(*inside)
    for (lo, hi), _ in inside:
        assert up.sturm_count(chain, lo, hi) == 1


def mignotte(n, a):
    """x^n - 2 (a x - 1)^2, irreducible by Eisenstein at 2, with two real
    roots about a^(-(n+2)/2) apart near 1/a."""
    return tuple(F(c) for c in [-2, 4 * a, -2 * a * a] + [0] * (n - 3) + [1])


MIGNOTTE = [(n, a) for a in (11, 10**6 + 1) for n in range(4, 17)]


def clear_root_caches():
    for fn in (rootiso.root_disks, rootiso.approx_roots,
               rootiso._durand_kerner, nf_embeddings):
        fn.cache_clear()


def _isolation(f, float_seed=True):
    """root_disks(f) and nf_embeddings of Q[x]/(f) from cleared caches,
    with the double-precision proposal or, if not float_seed, without."""
    clear_root_caches()
    with mock.patch.object(rootiso, "_float_proposal",
                           rootiso._float_proposal if float_seed
                           else lambda f: None):
        return root_disks(f), nf_embeddings(numberfield.NumberField(f))


def _disks_meet(p, q):
    s = max(p.scale, q.scale)
    dx = (p.x << (s - p.scale)) - (q.x << (s - q.scale))
    dy = (p.y << (s - p.scale)) - (q.y << (s - q.scale))
    r = (p.r << (s - p.scale)) + (q.r << (s - q.scale))
    return dx * dx + dy * dy <= r * r


def _root_of(disk, family):
    """The index of the disk of the pairwise disjoint family that holds
    the root of disk: the only one its refinement still meets."""
    width = F(1, 2**16)
    while True:
        small = disk.refined_below(width)
        hits = [j for j, d in enumerate(family) if _disks_meet(small, d)]
        if len(hits) == 1:
            return hits[0]
        width /= 2**8


def _assert_float_seed_decides_nothing(f):
    (cold, cold_mirror), cold_embs = _isolation(f, float_seed=False)
    (disks, mirror), embs = _isolation(f)
    # the same real/nonreal split; root_disks keeps the order in which
    # the iterates settled, so its disks match up to a permutation
    assert mirror == cold_mirror
    match = [_root_of(d, cold) for d in disks]
    assert sorted(match) == list(range(len(disks)))
    assert all((mirror[i] == i) == (cold_mirror[j] == j)
               for i, j in enumerate(match))
    # the embeddings come in the same order on the same roots
    assert ([(e.is_real, e.conjugate_index) for e in embs]
            == [(e.is_real, e.conjugate_index) for e in cold_embs])
    cold_roots = [e.root for e in cold_embs]
    assert [_root_of(e.root, cold_roots) for e in embs] == list(range(len(embs)))


@st.composite
def squarefree_polynomials(draw):
    n = draw(st.integers(1, 8))
    coeff = st.one_of(st.integers(-9, 9), st.integers(-10**9, 10**9))
    f = tuple(F(c) for c in draw(st.lists(coeff, min_size=n, max_size=n)))
    f += (F(1),)
    assume(up.degree(up.sturm_chain(f)[-1]) == 0)
    return f


@settings(max_examples=40, deadline=None)
@given(squarefree_polynomials())
def test_float_proposal_decides_nothing(f):
    _assert_float_seed_decides_nothing(f)


@pytest.mark.parametrize("n, a", MIGNOTTE)
def test_float_proposal_decides_nothing_on_mignotte(n, a):
    _assert_float_seed_decides_nothing(mignotte(n, a))


@pytest.mark.parametrize("n, a", MIGNOTTE)
def test_mignotte_known_answers(n, a):
    # n even: four real roots, n odd: three; the close pair is separated
    f = mignotte(n, a)
    start = time.monotonic()
    (disks, mirror), embs = _isolation(f)
    assert time.monotonic() - start < 1
    reals = sum(e.is_real for e in embs)
    assert reals == up.count_real_roots(f) == (4 if n % 2 == 0 else 3)
    assert sum(mirror[i] == i for i in range(n)) == reals
    for i, p in enumerate(disks):
        assert all(boxes_disjoint(box(p), box(q)) for q in disks[i + 1:])


def test_fixed_point_finishes_the_float_proposal_in_three_sweeps(monkeypatch):
    # x^8 + 1 at 30 digits: 8 fixed-point sweeps from the powers of
    # 0.4 + 0.9i, at most 3 from the settled double-precision iterate
    f = (F(1),) + (F(0),) * 7 + (F(1),)
    sweeps = []

    def divide(a, x, y, w, real=rootiso._fx_divide):
        sweeps.append(w)
        return real(a, x, y, w)

    clear_root_caches()
    monkeypatch.setattr(rootiso, "_fx_divide", divide)
    xs, ys, converged = rootiso._durand_kerner(f, rootiso.digits_bits(30))
    clear_root_caches()
    assert converged and 0 < len(sweeps) <= 3 * 8


@pytest.mark.parametrize("f", [
    (F(10**400), F(0), F(1)),                     # overflows a float
    (F(10**300), F(0), F(1)),                     # roots fit, iterates do not
], ids=["400-digit coefficient", "non-finite iterate"])
def test_float_proposal_fallbacks(f):
    # the fixed-point start from the powers of 0.4 + 0.9i takes over
    assert rootiso._float_proposal(f) is None
    (disks, mirror), _ = _isolation(f)
    assert mirror == (1, 0) and all(d.y != 0 for d in disks)


def test_float_proposal_that_does_not_settle(monkeypatch):
    f = mignotte(6, 7)
    assert rootiso._float_proposal(f) is not None
    monkeypatch.setattr(rootiso, "_MAX_STEPS", 3)
    assert rootiso._float_proposal(f) is None
    monkeypatch.undo()
    (disks, mirror), embs = _isolation(f)
    assert sum(e.is_real for e in embs) == up.count_real_roots(f) == 4


def _float_sweeps(f):
    """_float_proposal(f) and its number of sweeps, counted by the
    finiteness test it makes once per root and sweep."""
    tests = []

    def counting(x, real=math.isfinite):
        tests.append(x)
        return real(x)

    with mock.patch.object(rootiso, "isfinite", counting):
        zs = rootiso._float_proposal(f)
    return zs, len(tests) // (len(f) - 1)


@pytest.mark.parametrize("n, last_low", [(9, 27), (10, 23)])
def test_float_proposal_stops_once_it_stalls(n, last_low):
    # the close root pair near 1/11 holds the largest relative correction
    # at about 1e-11, above 2**-40, with its last new low at sweep
    # `last_low`: the iterate is handed over _STALL_SWEEPS sweeps later,
    # not None after all _MAX_STEPS
    zs, sweeps = _float_sweeps(mignotte(n, 11))
    assert zs is not None and len(zs) == n
    assert rootiso._STALL_SWEEPS < sweeps <= last_low + rootiso._STALL_SWEEPS
    assert sweeps < rootiso._MAX_STEPS


def test_float_proposal_rides_out_a_climbing_correction():
    # x^16 - 2(11x - 1)^2: the corrections climb from 1e-9 to 1e-7 before
    # they fall and settle at sweep 57; the stall test lets that happen
    f = mignotte(16, 11)
    zs, sweeps = _float_sweeps(f)
    with mock.patch.object(rootiso, "_STALL_SWEEPS", rootiso._MAX_STEPS):
        assert _float_sweeps(f) == (zs, sweeps)
    assert sweeps < rootiso._MAX_STEPS


def test_root_disks_fallback_branches(monkeypatch):
    # a level whose iteration does not converge, or whose approximations
    # do not pair up under conjugation, passes to the next; when no level
    # is left, root_disks rejects f as too large for the top precision
    f = mignotte(5, 3)
    first, second = (rootiso.digits_bits(d) for d in rootiso.ROOT_DIGITS[:2])
    real_approx = rootiso.approx_roots

    def unpaired(g, bits):
        roots = real_approx(g, bits)
        if bits == first:     # one lower root moved to the upper half
            i = next(i for i, (_, y) in enumerate(roots) if y < 0)
            roots = roots[:i] + ((roots[i][0], -roots[i][1]),) + roots[i + 1:]
        return roots

    clear_root_caches()
    monkeypatch.setattr(rootiso, "approx_roots", unpaired)
    assert rootiso._mirrored_centres(unpaired(f, first), first) is None
    disks, _ = rootiso.root_disks(f)
    assert {d.scale for d in disks} == {second}
    monkeypatch.undo()

    clear_root_caches()
    monkeypatch.setattr(rootiso, "_MAX_STEPS", 1)
    assert rootiso._durand_kerner(f, first)[2] is False
    assert rootiso.approx_roots(f, first) is None
    with pytest.raises(TooLarge, match="separated"):
        rootiso.root_disks(f)
    monkeypatch.undo()
    clear_root_caches()


def test_root_disks_past_the_top_precision_are_too_large(monkeypatch):
    # x^16 - 2(ax - 1)^2 with a = 10^12 + 3: its two roots near 1/a are
    # about a^-9 apart, and the disks do not separate by 60 digits
    clear_root_caches()
    monkeypatch.setattr(rootiso, "ROOT_DIGITS", (30, 60))
    start = time.monotonic()
    with pytest.raises(TooLarge, match="at 60 digits"):
        nf_create(mignotte(16, 10**12 + 3))
    assert time.monotonic() - start < 5
    monkeypatch.undo()
    clear_root_caches()


def test_embedded_root_test_refines_past_the_first_width(monkeypatch):
    # a value box that meets several isolating disks at the first width
    # 2^-16 (here widened to radius 4 about the true value) is narrowed
    # at the next width, 2^-24, which decides
    field = nf_create((F(1),) + (F(0),) * 7 + (F(1),))
    embs = nf_embeddings(field)
    widths = []

    def eval_box(self, element, width, real=ComplexEmbedding.eval_box):
        widths.append(width)
        x, y, r, d = real(self, element, width)
        return (x, y, r + 4 * d, d) if width == F(1, 2**16) else (x, y, r, d)

    monkeypatch.setattr(ComplexEmbedding, "eval_box", eval_box)
    for emb in (embs[0], embs[5]):
        assert _embedded_root_is(field.gen(), emb, emb.index)
        assert not _embedded_root_is(field.gen(), emb, emb.conjugate_index)
    assert sorted(set(widths)) == [F(1, 2**24), F(1, 2**16)]


# 2cos(2 pi/17) + i, whose conjugates are 2cos(2 pi k/17) +- i
MINPOLY_2COS17_PLUS_I = (1597, 632, 1435, 614, 790, 102, 231, 328, 189,
                         -118, -37, 68, 32, -12, -5, 2, 1)


# defining polynomials of the field-multiplication oracle test
MUL_FIELDS = {
    "QQ": (0, 1),
    "x^16+1": (1,) + (0,) * 15 + (1,),
    "(x-1/3)^16+1": shifted_poly((1,) + (0,) * 15 + (1,), F(1, 3)),
    "2cos(2pi/17)+i": MINPOLY_2COS17_PLUS_I,
}


@lru_cache(maxsize=None)
def _mul_field(name):
    return nf_create(MUL_FIELDS[name])


@pytest.mark.parametrize("name", sorted(MUL_FIELDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_field_mul_matches_polynomial_oracle(name, data):
    field = _mul_field(name)
    coords = st.lists(big_rationals, min_size=field.degree,
                      max_size=field.degree)
    a = field.element(data.draw(coords))
    b = field.element(data.draw(coords))
    want = _oracle_mul(field, a.coords, b.coords)
    got = a * b
    assert got.coords == want
    assert all(type(c) is Fraction for c in got.coords)
    assert (b * a).coords == want


# fields for the Fraction-coordinate oracle, two with non-integral
# defining polynomials
ORACLE_FIELDS = {
    "Q(i)": (1, 0, 1),
    "x^3-x/2+1/3": (F(1, 3), F(-1, 2), 0, 1),
    "(x-1/3)^16+1": MUL_FIELDS["(x-1/3)^16+1"],
}


def _oracle_mul(field, a, b):
    """Fraction coordinates of a b: the convolution of the coordinates
    reduced by the power table."""
    e = field.degree
    conv = [F(0)] * (2 * e - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    out = conv[:e]
    table, den = numberfield._integer_power_table(field)
    for c, row in zip(conv[e:], table):
        for i, p in row:
            out[i] += c * F(p, den)
    return tuple(out)


def _assert_canonical(x):
    """(num, den) in lowest terms, den > 0, and coords read off them."""
    assert all(type(n) is int for n in x.num) and type(x.den) is int
    assert len(x.num) == x.parent.degree
    assert x.den > 0 and math.gcd(x.den, *x.num) == 1
    assert x.coords == tuple(F(n, x.den) for n in x.num)
    assert all(type(c) is Fraction for c in x.coords)


@lru_cache(maxsize=None)
def _oracle_field(name):
    return nf_create(ORACLE_FIELDS[name])


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_integer_field_arithmetic_matches_fraction_oracle(name, data):
    field = _oracle_field(name)
    coords = st.lists(big_rationals, min_size=field.degree,
                      max_size=field.degree)
    ca, cb = data.draw(coords), data.draw(coords)
    c = data.draw(big_rationals)
    a, b = field.element(ca), field.element(cb)
    results = {
        "a + b": (a + b, tuple(x + y for x, y in zip(ca, cb))),
        "a - b": (a - b, tuple(x - y for x, y in zip(ca, cb))),
        "a * b": (a * b, _oracle_mul(field, ca, cb)),
        "-a": (-a, tuple(-x for x in ca)),
        "a * c": (a * c, tuple(x * c for x in ca)),
        "c * a": (c * a, tuple(x * c for x in ca)),
        "a + c": (a + c, (ca[0] + c,) + tuple(ca[1:])),
        "c - a": (c - a, (c - ca[0],) + tuple(-x for x in ca[1:])),
    }
    for label, (got, want) in results.items():
        assert got.coords == want, label
        _assert_canonical(got)
    # equal elements have equal (num, den), whatever the route
    for x, y in ((a + b - b, a), (a * b, b * a), (a * c - a * c, field.zero()),
                 (field.element(ca), a)):
        assert x == y and (x.num, x.den) == (y.num, y.den)
        assert hash(x) == hash(y)
    assert (a == b) == (ca == cb)
    assert (a == c) == (tuple(ca) == (c,) + (F(0),) * (field.degree - 1))
    assert field.from_rational(c) == c


@pytest.mark.parametrize("name", sorted(ORACLE_FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_field_dot_matches_summed_products(name, data):
    field = _oracle_field(name)
    entry = st.one_of(big_rationals, st.lists(
        big_rationals, min_size=field.degree,
        max_size=field.degree).map(field.element))
    n = data.draw(st.integers(1, 6))
    u = [data.draw(entry) for _ in range(n)]
    v = [data.draw(entry) for _ in range(n)]
    u[0] = field.element([data.draw(big_rationals)
                          for _ in range(field.degree)])
    got = numberfield.field_dot(u, v)
    assert got == sum((a * b for a, b in zip(u, v)), field.zero())
    _assert_canonical(got)


@pytest.mark.parametrize("name", sorted(set(MUL_FIELDS) | set(ORACLE_FIELDS)))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_inverse_is_the_canonical_solution_of_a_x_equals_1(name, data):
    field = (_mul_field if name in MUL_FIELDS else _oracle_field)(name)
    with pytest.raises(ZeroDivisionError):
        field.zero().inverse()
    a = field.element(data.draw(st.lists(big_rationals, min_size=field.degree,
                                          max_size=field.degree)))
    if a:
        inv = a.inverse()
        assert a * inv == 1 and inv * a == field.one()
        _assert_canonical(inv)


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.integers(1, 10**6))
def test_integer_built_matrices_equal_and_hash_like_fraction_built(m, k):
    # a row form need not be in lowest terms: scale every row by k
    built = Matrix.from_int_rows(
        tuple(([x * k for x in r], d * k) for r, d in linalg._integer_rows(m)),
        m.cols)
    assert (built.rows, built.cols) == (m.rows, m.cols)
    assert built == m and hash(built) == hash(m)
    assert all(type(x) is Fraction for r in built.entries for x in r)
    transposed = Matrix(tuple(zip(*m.entries)) if m.rows else ((),) * m.cols,
                        cols=m.rows)
    assert built.transpose() == transposed
    assert hash(built.transpose()) == hash(transposed)
    for fn, ref in ((rref, reference.rref), (kernel, reference.kernel),
                    (linalg.row_space, reference.row_space)):
        lazy, generic = _outcome(fn, built), _outcome(ref, m)
        if fn is rref:
            (lazy, _), (generic, _) = lazy, generic
        assert lazy == generic and hash(lazy) == hash(generic)


@pytest.mark.parametrize("coeffs, roots", [
    (shifted_poly([1] + [0] * 15 + [1], 1),
     [1 + cmath.exp(1j * math.pi * (2 * k + 1) / 16) for k in range(16)]),
    (MINPOLY_2COS17_PLUS_I,
     [2 * math.cos(2 * math.pi * k / 17) + s * 1j
      for k in range(1, 9) for s in (1, -1)]),
], ids=["(x-1)^16+1", "2cos(2pi/17)+i"])
def test_embeddings_of_dense_degree_16(coeffs, roots):
    start = time.monotonic()
    field = nf_create(coeffs)
    embs = nf_embeddings(field)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    roots.sort(key=lambda z: (round(z.real, 9), z.imag))
    assert [e.conjugate_index for e in embs] == [k ^ 1 for k in range(16)]
    for emb, want in zip(embs, roots):
        re, im = _gen_box(emb)
        assert abs(float(re[0]) - want.real) < 1e-9
        assert abs(float(im[0]) - want.imag) < 1e-9
    # Newton refinement stays inside the isolating disk
    fine = box(embs[5].root.refined_below(F(1, 2**600)))
    coarse = box(embs[5].root)
    for part in (0, 1):
        assert coarse[part][0] <= fine[part][0] <= fine[part][1] <= coarse[part][1]
        assert fine[part][1] - fine[part][0] <= F(1, 2**600)


@pytest.mark.parametrize("coeffs", [
    [1, 0, 1], [1, 0, 0, 0, 1], [1] + [0] * 7 + [1], [1] + [0] * 15 + [1],
    shifted_poly([1] + [0] * 15 + [1], 1), MINPOLY_2COS17_PLUS_I,
], ids=["x^2+1", "x^4+1", "x^8+1", "x^16+1", "(x-1)^16+1", "2cos(2pi/17)+i"])
def test_root_disks_and_conjugation_match_mpmath_oracle(coeffs, monkeypatch):
    import mpmath

    field = nf_create(coeffs)
    f = field.defining_poly
    disks, _ = root_disks(f)
    with mpmath.workdps(60):
        roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                  for c in reversed(f)],
                                 maxsteps=200, extraprec=200)
        hits = [[k for k, z in enumerate(roots)
                 if abs(z - mpmath.mpc(d.x, d.y) / 2**d.scale) <= mpmath.mpf(d.r) / 2**d.scale]
                for d in disks]
    assert sorted(k for ks in hits for k in ks) == list(range(len(roots)))
    assert all(len(ks) == 1 for ks in hits)
    # each CM field is conjugated by the certified guess, never by Trager
    monkeypatch.setattr(numberfield, "roots_in_field", _no_trager)
    tau = conjugation_automorphism.__wrapped__(field, 0)
    assert tau != field.gen()
    assert apply_automorphism(tau, tau) == field.gen()


def test_conjugation_guess_certifies_at_30_digits(monkeypatch):
    # the guess rounds h'(beta) tau(beta) to its integer coordinates, so
    # the first precision of the ramp is enough: tau at embeddings 0 and 5
    # is the 30-digit guess, which passes both exact checks, and no
    # later guess is made
    field = nf_create(MINPOLY_2COS17_PLUS_I)
    embs = nf_embeddings(field)
    guess = _guess_conjugation(field, 30)
    assert up.eval_at(field.defining_poly, guess).is_zero()
    assert apply_automorphism(guess, guess) == field.gen()
    made = []

    def counted(f, digits):
        made.append(digits)
        return _guess_conjugation(f, digits)

    monkeypatch.setattr(numberfield, "_guess_conjugation", counted)
    for index in (0, 5):
        emb = embs[index]
        assert _embedded_root_is(guess, emb, emb.conjugate_index)
        assert conjugation_automorphism.__wrapped__(field, index) == guess
    assert made == [30, 30]


def _corpus_fields():
    fields = set()
    for path in CORPUS.glob("*.json"):
        doc = json.loads(path.read_text())
        if doc.get("kind") == "k3period":
            fields.add(tuple(F(c) for c in doc["field"]))
    return sorted(fields)


@pytest.mark.parametrize("coeffs", _corpus_fields() + [
    [1] + [0] * (d - 1) + [1] for d in (2, 4, 8, 16)] + [
    # generators that are not algebraic integers
    [F(1, 4), 0, 1], [F(7, 4), F(1, 2), 1]])
def test_conjugation_matrix_matches_automorphism_oracle(coeffs):
    field = nf_create(coeffs)
    e = field.degree
    rng = random.Random(e)
    elements = [power(field.gen(), j) for j in range(e)] + [
        field.element([F(rng.randint(-9, 9), rng.randint(1, 9))
                       for _ in range(e)]) for _ in range(4)]
    nonreal = [emb for emb in nf_embeddings(field) if not emb.is_real]
    assert nonreal
    for emb in nonreal:
        tau = conjugation_automorphism(field, emb.index)
        matrix = numberfield.conjugation_matrix(field, emb.index)
        assert matrix.rows == matrix.cols == e
        for v in elements:
            conj = conjugate_element(v, emb)
            assert conj == apply_automorphism(tau, v)
            assert FieldElement(field, matrix.vec(v.coords)) == conj
        assert conjugate_vector(elements, emb) == tuple(
            apply_automorphism(tau, v) for v in elements)
        # the realness test of certified_sign reads the same matrix
        real = elements[-1] + conjugate_element(elements[-1], emb)
        imaginary = field.gen() - conjugate_element(field.gen(), emb)
        assert certified_sign(real, emb) in (-1, 1)
        with pytest.raises(NotRealValued):
            certified_sign(real + imaginary, emb)


def _oracle_least_factor(coeffs):
    """None or the monic irreducible factor of least degree (ties by the
    coefficient tuple), from sympy's factorization."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], x)
    _, factors = poly.factor_list()
    if len(factors) == 1 and factors[0][1] == 1:
        return None
    monic = []
    for g, _mult in factors:
        cs = [F(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())]
        monic.append(tuple(c / cs[-1] for c in cs))
    return min(monic, key=lambda g: (len(g), g))


ORACLE_POLYS = {
    "x^4+4": [4, 0, 0, 0, 1],                      # no rational root
    "x^4-10x^2+1": [1, 0, -10, 0, 1],              # reducible mod every p
    "(x^2+1)^2": [1, 0, 2, 0, 1],
    "x^6-1": [-1, 0, 0, 0, 0, 0, 1],
    "x^2-1": [-1, 0, 1],
    "x^2-1/4": [F(-1, 4), 0, 1],
    "2cos(pi/32)": [2, 0, -64, 0, 336, 0, -672, 0, 660, 0, -352, 0, 104, 0,
                    -16, 0, 1],
    "x^2+1": [1, 0, 1], "x^4+1": [1, 0, 0, 0, 1],  # cm_ladder fields
    "x^8+1": [1, 0, 0, 0, 0, 0, 0, 0, 1],
    "(x^8+1)((x-1)^8+1)": up.mul(shifted_poly([1] + [0] * 7 + [1], 0),
                                  shifted_poly([1] + [0] * 7 + [1], 1)),
    # denominators of 127 bits: the integer rescaling is huge
    "(x^2+x-2/3^80)(x^3-3x+5+1/3^80)": up.mul(
        (F(-2, 3**80), F(1), F(1)), (5 + F(1, 3**80), F(-3), F(0), F(1))),
}


ENCLOSURE_POLYS = {name: ORACLE_POLYS[name] for name in (
    "x^4-10x^2+1", "2cos(pi/32)", "x^2+1", "x^4+1", "x^8+1")}
ENCLOSURE_POLYS.update({"x^16+1": [1] + [0] * 15 + [1],
                        "2cos(2pi/17)+i": MINPOLY_2COS17_PLUS_I})


@pytest.mark.parametrize("name", sorted(ENCLOSURE_POLYS))
def test_eval_box_encloses_mpmath_value(name):
    import mpmath

    field = nf_create(ENCLOSURE_POLYS[name])
    e = field.degree
    rng = random.Random(e)
    elements = [field.gen()] + [
        field.element([F(rng.randint(-99, 99), rng.randint(1, 99))
                       for _ in range(e)]) for _ in range(3)]
    with mpmath.workdps(100):
        tol = mpmath.mpf(10)**-90
        roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                  for c in reversed(field.defining_poly)],
                                 maxsteps=200, extraprec=400)
        for emb in nf_embeddings(field):
            d = emb.root
            centre = mpmath.mpc(d.x, d.y) / 2**d.scale
            (z,) = [z for z in roots
                    if abs(z - centre) <= mpmath.mpf(d.r) / 2**d.scale]
            for v in elements:
                value = mpmath.polyval([mpmath.mpf(c.numerator) / c.denominator
                                        for c in reversed(v.coords)], z)
                for bits in (16, 64, 128, 256):
                    width = F(1, 2**bits)
                    x, y, r, den = emb.eval_box(v, width)
                    error = abs(value - mpmath.mpc(x, y) / den)
                    assert error <= r / mpmath.mpf(den) + tol
                    assert y == 0 or not emb.is_real
                    if v == field.gen():
                        assert F(r, den) <= width / 2


@pytest.mark.parametrize("name", sorted(ORACLE_POLYS))
def test_nf_create_matches_factorization_oracle(name):
    coeffs = ORACLE_POLYS[name]
    want = _oracle_least_factor(coeffs)
    if want is None:
        assert nf_create(coeffs).degree == len(coeffs) - 1
    else:
        with pytest.raises(Reducible) as err:
            nf_create(coeffs)
        assert err.value.witness == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=5),
       st.lists(st.integers(-6, 6), min_size=0, max_size=4))
def test_nf_create_agrees_with_factorization(a, b):
    # monic products of two random factors, or one factor alone
    poly = up.mul(tuple(F(c) for c in a + [1]), tuple(F(c) for c in b + [1]))
    want = _oracle_least_factor(poly)
    try:
        nf_create(poly)
        got = None
    except Reducible as err:
        got = err.witness
    assert got == want


def test_matrix_vec_skips_zero_entries():
    field = nf_create([1, 0, 1])
    i_el = field.gen()
    m = Matrix(((F(0), F(0)), (F(2), F(0)), (F(1), F(-3))))
    out = m.vec((i_el, field.one()))
    assert out == (field.zero(), 2 * i_el, i_el - 3)
    assert all(isinstance(v, type(i_el)) for v in out)
    assert Matrix(((F(0), F(0)),)).vec((F(1), F(2))) == (F(0),)


def test_real_embedding_refinement_is_history_independent():
    # (x - 1)^4 - 2: real roots 1 -+ 2^(1/4), nonreal 1 -+ i 2^(1/4)
    field = nf_create([-1, -4, 6, -4, 1])
    cached = nf_embeddings(field)[0]
    assert cached.is_real

    def fresh():
        return numberfield.ComplexEmbedding(field, 0, cached.root, True, 0)

    gen, width = field.gen(), F(1, 2**64)
    refined = fresh()
    _, y, r, d = refined.eval_box(gen, F(1, 2**512))
    assert F(2 * r, d) <= F(1, 2**512) and y == 0
    # an earlier, finer refinement does not change a later enclosure
    disk = refined.eval_box(gen, width)
    assert disk == fresh().eval_box(gen, width) == cached.eval_box(gen, width)
    _, y, r, d = disk
    assert F(2 * r, d) <= width and y == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=2, max_size=8))
def test_real_embeddings_match_sturm_oracle(coeffs):
    f = tuple(F(c) for c in coeffs) + (F(1),)
    try:
        field = nf_create(f)
    except Reducible:
        return
    chain = up.sturm_chain(f)
    bound = up.root_bound(f)
    reals = [emb for emb in nf_embeddings(field) if emb.is_real]
    assert len(reals) == up.sturm_count(chain, -bound, bound)
    # the certified disks, and the same disks after Newton refinement
    for disks in ([emb.root for emb in reals],
                  [emb.root.refined_below(F(1, 2**100)) for emb in reals]):
        assert all(d.y == 0 for d in disks)
        boxes = [box(d) for d in disks]
        assert all(a[0][1] < b[0][0] for a, b in zip(boxes, boxes[1:]))
        for (lo, hi), _ in boxes:
            assert up.sturm_count(chain, lo, hi) == 1
            assert up.eval_at(f, lo) * up.eval_at(f, hi) < 0


def test_totally_real_embeddings_of_2cos_pi_32():
    field = nf_create(ORACLE_POLYS["2cos(pi/32)"])
    embs = nf_embeddings(field)
    assert [e.is_real for e in embs] == [True] * 16
    assert [e.conjugate_index for e in embs] == list(range(16))
    want = sorted(2 * math.cos((2 * k + 1) * math.pi / 32) for k in range(16))
    width = F(1, 2**1024)
    start = time.monotonic()
    disks = [emb.eval_box(field.gen(), width) for emb in embs]
    elapsed = time.monotonic() - start
    assert elapsed < 3
    for (x, y, r, d), root in zip(disks, want):
        assert y == 0
        assert F(2 * r, d) <= width
        assert abs(float(F(x - r, d)) - root) < 1e-12
