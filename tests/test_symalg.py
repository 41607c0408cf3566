"""Tests for symmetric algebras, the harmonic quotient and the
transcendental Hodge algebra builder."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgekit.errors import (DegreeTooHigh, HarmonicDimTooSmall,
                             InternalError, ValidationError)
from hodgekit.exactmath import (Matrix, inverse, kernel, nf_create,
                                nf_embeddings, rank)
from hodgekit.exactmath.mpoly import mp_add, mp_from_vector, mp_mul, mp_pow
from hodgekit.hodge import endomorphism_field, transcendental_lattice, validate_period
from hodgekit.qforms import QuadraticSpace, dual_bivector, lowered
from hodgekit.symalg import (FULL_E, HARMONIC, HARMONIC_E, SymAlgebra,
                             SymElement, build_tha, contraction_matrix,
                             harm_dim, harmonic_project, monomials, power_top,
                             sym_decompose_dims, sym_dim)
from reference_pfaffian import mp_diff, mp_scale
from test_exactmath import power

F = Fraction
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def sym_plus_multiply(alg, a, c):
    """Product in the truncated algebra: plain in Full mode, harmonic
    representative of the product in Harmonic mode."""
    if a.degree + c.degree > alg.top:
        raise DegreeTooHigh(
            f"product degree {a.degree + c.degree} exceeds top degree {alg.top}")
    prod = SymElement.from_dict(alg.dim, a.degree + c.degree,
                                mp_mul(a.as_dict(), c.as_dict()))
    if alg.mode == HARMONIC:
        return harmonic_project(alg, prod)
    return prod


def linear_element(nvars, vec):
    return SymElement.from_dict(nvars, 1, mp_from_vector(vec))


def qspace(rows):
    return QuadraticSpace(Matrix([[F(c) for c in r] for r in rows]))


EUCLID3 = qspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
LORENTZ3 = qspace([[1, 0, 0], [0, 1, 0], [0, 0, -1]])


def test_sym_dim():
    assert sym_dim(3, 0) == 1
    assert sym_dim(3, 2) == 6
    assert sym_dim(5, 4) == 70
    assert sym_dim(5, 4) == len(monomials(5, 4))


def test_harm_dim():
    assert [harm_dim(3, i) for i in range(5)] == [1, 3, 5, 7, 9]
    assert harm_dim(4, 3) == 16
    assert harm_dim(7, 0) == 1 and harm_dim(7, 1) == 7


def test_sym_decompose_dims():
    assert sym_decompose_dims(3, 2) == [5, 1]
    assert sym_decompose_dims(5, 0) == [1]
    assert sym_decompose_dims(3, 4) == [9, 5, 1]
    assert sum(sym_decompose_dims(3, 4)) == sym_dim(3, 4)


@pytest.mark.parametrize("m", range(3, 7))
@pytest.mark.parametrize("i", range(0, 7))
def test_harm_dim_equals_contraction_kernel(m, i):
    ident = QuadraticSpace(Matrix.identity(m))
    if i < 2:
        assert harm_dim(m, i) == sym_dim(m, i)
        return
    lam = contraction_matrix(ident, i)
    kernel_dim = sym_dim(m, i) - rank(lam)
    assert harm_dim(m, i) == kernel_dim


def test_harmonic_basis_dimension_indefinite():
    # the splitting has the same dimensions for indefinite forms
    assert kernel(contraction_matrix(LORENTZ3, 3)).rows == harm_dim(3, 3)


def test_harmonic_project_kills_bivector():
    alg = SymAlgebra(EUCLID3, HARMONIC, 4)
    b = dual_bivector(EUCLID3)
    el = SymElement.from_dict(3, 2, b)
    assert harmonic_project(alg, el).is_zero()


def test_harmonic_project_fixes_low_degree():
    alg = SymAlgebra(EUCLID3, HARMONIC, 3)
    lin = linear_element(3, (F(2), F(-1), F(0)))
    assert harmonic_project(alg, lin) == lin


def test_harmonic_project_trace_free_square():
    alg = SymAlgebra(EUCLID3, HARMONIC, 2)
    e1sq = SymElement.from_dict(3, 2, {(2, 0, 0): F(1)})
    proj = harmonic_project(alg, e1sq)
    expected = SymElement.from_dict(3, 2, {
        (2, 0, 0): F(2, 3), (0, 2, 0): F(-1, 3), (0, 0, 2): F(-1, 3)})
    assert proj == expected


def test_harmonic_project_degree_cap():
    alg = SymAlgebra(EUCLID3, HARMONIC, 2)
    cubic = SymElement.from_dict(3, 3, {(3, 0, 0): F(1)})
    with pytest.raises(DegreeTooHigh):
        harmonic_project(alg, cubic)


def test_harmonic_mode_needs_dim_three():
    with pytest.raises(HarmonicDimTooSmall, match="dimension >= 3"):
        SymAlgebra(qspace([[1, 0], [0, 1]]), HARMONIC, 2)


def test_algebra_construction_rejections():
    with pytest.raises(ValidationError, match="unknown mode 'graded'"):
        SymAlgebra(EUCLID3, "graded", 2)
    # the harmonic quotient is the only mode
    with pytest.raises(ValidationError, match="unknown mode 'full'"):
        SymAlgebra(EUCLID3, "full", 2)
    with pytest.raises(ValidationError, match="at least 1"):
        SymAlgebra(EUCLID3, HARMONIC, 0)
    assert SymAlgebra(EUCLID3, HARMONIC, 2).dim == 3


def test_elements_are_equal_by_coefficients():
    a = SymElement.from_dict(3, 2, {(2, 0, 0): F(1), (0, 1, 1): F(-2)})
    b = SymElement.from_vector(3, 2, a.vector())
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != SymElement.from_dict(3, 2, {(2, 0, 0): F(1)})


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-4, 4), min_size=6, max_size=6))
def test_harmonic_project_idempotent_and_kernel(coeffs):
    alg = SymAlgebra(LORENTZ3, HARMONIC, 4)
    mons = monomials(3, 2)
    el = SymElement.from_dict(3, 2, {m: F(c) for m, c in zip(mons, coeffs)})
    proj = harmonic_project(alg, el)
    assert harmonic_project(alg, proj) == proj
    # b * anything projects to zero
    b = dual_bivector(LORENTZ3)
    lifted = SymElement.from_dict(3, 4, mp_mul(b, el.as_dict()))
    assert harmonic_project(alg, lifted).is_zero()


def test_sym_plus_multiply_examples():
    alg = SymAlgebra(EUCLID3, HARMONIC, 3)
    one = SymElement.from_dict(3, 0, {(0, 0, 0): F(1)})
    e1 = linear_element(3, (F(1), F(0), F(0)))
    e2 = linear_element(3, (F(0), F(1), F(0)))
    assert sym_plus_multiply(alg, one, e2) == e2
    prod = sym_plus_multiply(alg, e1, e2)
    assert prod == SymElement.from_dict(3, 2, {(1, 1, 0): F(1)})
    sq = sym_plus_multiply(alg, e1, e1)
    assert sq == SymElement.from_dict(3, 2, {
        (2, 0, 0): F(2, 3), (0, 2, 0): F(-1, 3), (0, 0, 2): F(-1, 3)})
    with pytest.raises(DegreeTooHigh):
        sym_plus_multiply(alg, sq, sq)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_quotient_multiplication_commutative_associative(xs, ys, zs):
    alg = SymAlgebra(LORENTZ3, HARMONIC, 3)
    a = linear_element(3, tuple(F(c) for c in xs))
    b = linear_element(3, tuple(F(c) for c in ys))
    c = linear_element(3, tuple(F(c) for c in zs))
    ab = sym_plus_multiply(alg, a, b)
    ba = sym_plus_multiply(alg, b, a)
    assert ab == ba
    abc1 = sym_plus_multiply(alg, ab, c)
    abc2 = sym_plus_multiply(alg, a, sym_plus_multiply(alg, b, c))
    assert abc1 == abc2


def test_power_top_zero_and_isotropic():
    alg = SymAlgebra(LORENTZ3, HARMONIC, 2)
    assert power_top(alg, (F(0), F(0), F(0))).is_zero()
    iso = power_top(alg, (F(1), F(0), F(1)))
    assert not iso.is_zero()
    # isotropic vectors are already harmonic: the square survives as is
    assert iso == SymElement.from_dict(3, 2, {(2, 0, 0): F(1), (1, 0, 1): F(2),
                                              (0, 0, 2): F(1)})


def test_power_top_euclidean():
    alg = SymAlgebra(EUCLID3, HARMONIC, 2)
    p = power_top(alg, (F(1), F(0), F(0)))
    assert p == SymElement.from_dict(3, 2, {
        (2, 0, 0): F(2, 3), (0, 2, 0): F(-1, 3), (0, 0, 2): F(-1, 3)})


def _substituted(p, a):
    """p(A X): each variable x_i becomes the linear form of row i of A."""
    rows = [mp_from_vector(r) for r in a.entries]
    out = {}
    for mon, c in p.as_dict().items():
        term = {(0,) * a.cols: c}
        for row, k in zip(rows, mon):
            if k:
                term = mp_mul(term, mp_pow(row, k))
        out = mp_add(out, term)
    return out


# nondegenerate, non-diagonal Gram matrices with non-unimodular changes
# of basis A (determinants 5 and -4)
CHANGES_OF_BASIS = {
    3: ([[1, 2, 0], [2, -1, 1], [0, 1, 3]],
        [[2, 1, 0], [0, 1, -1], [1, 0, 3]], (1, -2, 3)),
    4: ([[0, 1, 0, 2], [1, 2, 0, 0], [0, 0, -1, 1], [2, 0, 1, 0]],
        [[1, 2, 0, 0], [0, 1, 0, 3], [1, 0, 2, 0], [0, 0, 1, 1]],
        (1, 0, -1, 2)),
}


@pytest.mark.parametrize("dim,top", [(3, 4), (4, 4)])
def test_power_top_commutes_with_a_change_of_basis(dim, top):
    # the harmonic top power over A^-1 G A^-T at A^T v is the one over G
    # at v with X -> A X substituted: L and the dual bivector both
    # transform by the same substitution
    gram, change, v = CHANGES_OF_BASIS[dim]
    g = Matrix([[F(c) for c in r] for r in gram])
    a = Matrix([[F(c) for c in r] for r in change])
    a_inv = inverse(a)
    moved = QuadraticSpace(a_inv * g * a_inv.transpose())
    assert any(moved.gram[i, j] != 0 for i in range(dim) for j in range(i))
    v = tuple(F(c) for c in v)
    base = power_top(SymAlgebra(QuadraticSpace(g), HARMONIC, top), v)
    image = power_top(SymAlgebra(moved, HARMONIC, top),
                      a.transpose().vec(v))
    assert image.as_dict() == _substituted(base, a)


def _fischer_projection(space, p, n):
    """Harmonic part of p in Sym^n by the Fischer decomposition:
    h = sum_j c_j b^j L^j p with c_0 = 1 and
    c_j = -c_(j-1) / (2j (2n + m - 2 - 2j)), from [L, b] = 4E + 2m for
    L = sum g_ab d_a d_b and b the dual bivector."""
    m, g = space.dim, space.gram
    b = dual_bivector(space)

    def laplacian(q):
        out = {}
        for a in range(m):
            for e in range(m):
                if g[a, e]:
                    out = mp_add(out, mp_scale(mp_diff(mp_diff(q, a), e),
                                               g[a, e]))
        return out

    h, c, lp, bj = {}, F(1), p, {(0,) * m: F(1)}
    for j in range(n // 2 + 1):
        if j:
            c = -c / (2 * j * (2 * n + m - 2 - 2 * j))
            lp, bj = laplacian(lp), mp_mul(bj, b)
        h = mp_add(h, mp_scale(mp_mul(bj, lp), c))
    return h


# indefinite, non-diagonal and nondegenerate: signatures (2, 1), (2, 2)
# and (3, 2)
FISCHER_GRAMS = {
    3: [[1, 2, 0], [2, -1, 1], [0, 1, 3]],
    4: [[0, 1, 0, 2], [1, 2, 0, 0], [0, 0, -1, 1], [2, 0, 1, 0]],
    5: [[0, 1, 0, 0, 2], [1, 2, 0, 1, 0], [0, 0, -1, 1, 0], [0, 1, 1, 0, 1],
        [2, 0, 0, 1, -3]],
}


@pytest.mark.parametrize("dim,deg", [(3, 2), (3, 4), (4, 4), (5, 4), (4, 5)])
def test_harmonic_project_matches_the_fischer_formula(dim, deg):
    space = qspace(FISCHER_GRAMS[dim])
    alg = SymAlgebra(space, HARMONIC, deg)
    rng = random.Random(dim * 10 + deg)
    for _ in range(3):
        p = {mon: F(rng.randint(-5, 5), rng.randint(1, 3))
             for mon in monomials(dim, deg)}
        p = {mon: c for mon, c in p.items() if c}
        x = SymElement.from_dict(dim, deg, p)
        assert harmonic_project(alg, x).as_dict() == \
            _fischer_projection(space, p, deg)


@pytest.mark.parametrize("dim,deg", [(3, 2), (3, 4), (4, 4), (5, 4), (4, 5)])
def test_harmonic_project_matches_the_fischer_formula_over_a_real_field(
        dim, deg):
    # E = Q(sqrt2) is real and not Q: the polynomials have coefficients
    # a + b sqrt2, and the rational projector applies to them E-linearly,
    # its matrices acting on the power-basis coordinates
    field = nf_create([-2, 0, 1])
    space = qspace(FISCHER_GRAMS[dim])
    alg = SymAlgebra(space, HARMONIC, deg)
    rng = random.Random(dim * 10 + deg)
    for _ in range(3):
        p = {mon: field.element([F(rng.randint(-5, 5), rng.randint(1, 3)),
                                 F(rng.randint(-2, 2))])
             for mon in monomials(dim, deg)}
        p = {mon: c for mon, c in p.items() if c}
        x = SymElement.from_dict(dim, deg, p)
        assert harmonic_project(alg, x).as_dict() == \
            _fischer_projection(space, p, deg)


# helpers shared with the hodge tests

def gaussian_structure():
    field = nf_create([1, 0, 1])
    emb = nf_embeddings(field)[1]
    sp = qspace([[1, 0], [0, 1]])
    p = validate_period(sp, field, emb,
                        (field.element([1, 0]), field.element([0, 1])))
    h = transcendental_lattice(p)
    return h, endomorphism_field(h)


def sqrt2i_structure():
    field = nf_create([9, 0, -2, 0, 1])
    emb = nf_embeddings(field)[3]
    sp = qspace([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    sqrt2 = field.element([0, F(5, 6), 0, F(-1, 6)])
    i_el = field.element([0, F(1, 6), 0, F(1, 6)])
    p = validate_period(sp, field, emb, (sqrt2, i_el, field.one()))
    h = transcendental_lattice(p)
    return h, endomorphism_field(h)


def quartic_cm_structure():
    field = nf_create([9, 0, -2, 0, 1])
    emb = nf_embeddings(field)[3]
    th = field.gen()
    sqrt2 = (5 * th - power(th, 3)) / 6
    i_el = (power(th, 3) + th) / 6
    sp = qspace([[0, 4, 0, 0], [4, 0, 0, 0], [0, 0, 0, 4], [0, 0, 4, 0]])
    p = validate_period(sp, field, emb,
                        (field.one(), sqrt2 / 2, i_el, i_el * sqrt2 / 2))
    h = transcendental_lattice(p)
    return h, endomorphism_field(h)


def test_build_tha_cm():
    h, ef = gaussian_structure()
    tha = build_tha(h, ef, 3)
    assert tha.mode == FULL_E
    assert tha.graded_dims_e == (1, 1, 1, 1)
    assert tha.graded_dims_q == (2, 2, 2, 2)
    # E = Q(i) is all of T: rank one over E
    assert tha.rank_over_e == 1 and ef.e * tha.rank_over_e == h.dim_t


def test_build_tha_totally_real():
    h, ef = sqrt2i_structure()
    tha = build_tha(h, ef, 2)
    assert tha.mode == HARMONIC_E
    assert tha.graded_dims_e == (1, 3, 5)
    assert tha.graded_dims_q == (1, 3, 5)
    assert tha.rank_over_e == 3


def test_build_tha_top_degree_one():
    h, ef = sqrt2i_structure()
    tha = build_tha(h, ef, 1)
    assert tha.graded_dims_q == (1, 3)
    h2, ef2 = gaussian_structure()
    tha2 = build_tha(h2, ef2, 1)
    assert tha2.graded_dims_q == (2, 2)


def test_build_tha_quartic_cm():
    h, ef = quartic_cm_structure()
    tha = build_tha(h, ef, 2)
    assert tha.mode == FULL_E
    assert tha.graded_dims_e == (1, 1, 1)
    assert tha.graded_dims_q == (4, 4, 4)
    assert tha.rank_over_e == 1


def test_build_tha_dim_consistency():
    for make, n in ((gaussian_structure, 3), (sqrt2i_structure, 2),
                    (quartic_cm_structure, 2)):
        h, ef = make()
        tha = build_tha(h, ef, n)
        assert all(q == ef.e * d for q, d in
                   zip(tha.graded_dims_q, tha.graded_dims_e))


def test_build_tha_checks_that_the_primitive_element_is_self_adjoint(
        monkeypatch):
    # q_E is symmetric exactly when P^T G_T = G_T P.  On the totally real
    # corpus octic (e = 2) P^T G_T is symmetric and is not G_T; on sqrt2i
    # (e = 1) P is a scalar, so there the check is vacuous
    from hodgekit.cli import build_period, load_problem_file

    doc = load_problem_file(CORPUS / "totally_real_sqrt2_period.json")[1]
    h = transcendental_lattice(build_period(doc))
    ef = endomorphism_field(h)
    pt_g = lowered(h.gram, ef.primitive_matrix.transpose())[0]
    assert ef.e == 2 and pt_g.is_symmetric() and pt_g != h.gram
    assert build_tha(h, ef, 2).mode == HARMONIC_E
    h1, ef1 = sqrt2i_structure()
    p = ef1.primitive_matrix
    assert p == Matrix.identity(h1.dim_t) * p[0, 0]
    # a basis shift in place of P, which is not q-self-adjoint
    t = h.dim_t
    shift = Matrix([[F(int(i == j + 1)) for j in range(t)] for i in range(t)])
    assert not lowered(h.gram, shift.transpose())[0].is_symmetric()
    monkeypatch.setattr(ef, "primitive_matrix", shift)
    with pytest.raises(InternalError,
                       match="^trace-transfer pairing is not symmetric; "
                             "the endomorphism field is not acting totally "
                             "real$"):
        build_tha(h, ef, 2)


def test_build_tha_rejects_bad_n():
    h, ef = gaussian_structure()
    with pytest.raises(Exception):
        build_tha(h, ef, 0)
