"""Tests for quadratic spaces: signatures, complements, dual bivector."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgekit.errors import Degenerate, NotSymmetric
from hodgekit.exactmath import Matrix, det, nf_create
from hodgekit.exactmath.linalg import row_space
from hodgekit.qforms import (QuadraticSpace, congruence_diagonal,
                             dual_bivector, orth_complement, signature)
import reference_elimination as reference

F = Fraction


def space(rows):
    return QuadraticSpace(Matrix([[F(c) for c in r] for r in rows]))


DIAG_LORENTZ = space([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
HYPERBOLIC = space([[0, 1], [1, 0]])


def test_construction_rejections():
    with pytest.raises(NotSymmetric):
        space([[0, 1], [2, 0]])
    with pytest.raises(Degenerate):
        space([[1, 0], [0, 0]])
    with pytest.raises(NotSymmetric, match="must be square"):
        QuadraticSpace(Matrix([[F(1), F(0)]]))


def test_equality_and_hash_follow_the_gram_matrix():
    # the symalg caches and the power_top cold/warm split key on spaces
    a, b = space([[0, 1], [1, 0]]), space([[0, 1], [1, 0]])
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b, HYPERBOLIC}) == 1
    assert a != space([[1, 0], [0, -1]])
    # the diagonal is computed from the Gram matrix, not compared
    assert a.diagonal == b.diagonal


def test_signature_examples():
    assert signature(DIAG_LORENTZ) == (2, 1)
    assert signature(space([[1, 0, 0, 0], [0, 1, 0, 0],
                            [0, 0, 1, 0], [0, 0, 0, 1]])) == (4, 0)
    # hyperbolic plane diagonalizes to one positive and one negative entry
    assert signature(HYPERBOLIC) == (1, 1)


def test_congruence_diagonal_is_a_congruence():
    for sp in (DIAG_LORENTZ, HYPERBOLIC,
               space([[0, 1, 2], [1, 0, 3], [2, 3, 0]])):
        diag, u = congruence_diagonal(sp.gram)
        d = u * sp.gram * u.transpose()
        assert all(d.entries[i][j] == (diag[i] if i == j else 0)
                   for i in range(sp.dim) for j in range(sp.dim))
        assert all(x != 0 for x in diag)


# zero diagonals: each pivot is made by adding the first later column of
# a nonzero entry of its row; the exact (diag, U) are those of the
# Fraction elimination before the integer rows
ZERO_DIAGONAL = [
    ([[0, 1, 2], [1, 0, 3], [2, 3, 0]], ["2", "-1/2", "-12"],
     [["1", "1", "0"], ["-1/2", "1/2", "0"], ["-3", "-2", "1"]]),
    ([[0, "1/2", 0, 0], ["1/2", 0, 0, 0], [0, 0, 0, "-2/3"], [0, 0, "-2/3", 0]],
     ["1", "-1/4", "-4/3", "1/3"],
     [["1", "1", "0", "0"], ["-1/2", "1/2", "0", "0"], ["0", "0", "1", "1"],
      ["0", "0", "-1/2", "1/2"]]),
    ([[0, 0, 1, 0], [0, 0, 0, 3], [1, 0, 0, 0], [0, 3, 0, 0]],
     ["2", "-1/2", "6", "-3/2"],
     [["1", "0", "1", "0"], ["-1/2", "0", "1/2", "0"], ["0", "1", "0", "1"],
      ["0", "-1/2", "0", "1/2"]]),
]
GAUSSIAN = nf_create([1, 0, 1])


def _lifted(m):
    return Matrix([[GAUSSIAN.from_rational(c) for c in r] for r in m.entries])


@pytest.mark.parametrize("rows, diag, u", ZERO_DIAGONAL)
def test_zero_diagonal_gives_the_fraction_elimination(rows, diag, u):
    gram = Matrix([[F(c) for c in r] for r in rows])
    want = [F(d) for d in diag], Matrix([[F(c) for c in r] for r in u])
    assert congruence_diagonal(gram) == want
    # the same steps on the entries of a Gram matrix over a number field,
    # which hodgekit does not diagonalize
    got_diag, got_u = reference.congruence_diagonal(_lifted(gram))
    assert got_diag == want[0] and got_u == _lifted(want[1])
    with pytest.raises(TypeError, match="rational Gram matrix"):
        congruence_diagonal(_lifted(gram))


@pytest.mark.parametrize("rows", [
    [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
    [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 2, 0]],
])
def test_zero_row_at_a_zero_pivot_is_degenerate(rows):
    # row `step` of a nonsingular trailing block with zero diagonal has a
    # nonzero entry past the diagonal; a zero row is a singular block
    gram = Matrix([[F(c) for c in r] for r in rows])
    for diagonalize, g in ((congruence_diagonal, gram),
                           (reference.congruence_diagonal, gram),
                           (reference.congruence_diagonal, _lifted(gram))):
        with pytest.raises(Degenerate,
                           match="^degenerate block during diagonalization$"):
            diagonalize(g)
    with pytest.raises(TypeError, match="rational Gram matrix"):
        congruence_diagonal(_lifted(gram))
    with pytest.raises(Degenerate, match="must be nondegenerate"):
        QuadraticSpace(gram)
    # quadratic spaces are rational only
    with pytest.raises(TypeError, match="rational Gram matrix"):
        QuadraticSpace(_lifted(gram))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4),
             min_size=n, max_size=n), min_size=n, max_size=n)), st.booleans())
def test_integer_congruence_matches_the_fraction_elimination(rows, hollow):
    n = len(rows)
    gram = Matrix([[F(0) if hollow and i == j else rows[min(i, j)][max(i, j)]
                    for j in range(n)] for i in range(n)], cols=n)

    def outcome(diagonalize):
        try:
            return diagonalize(gram)
        except Degenerate as exc:
            return str(exc)
    got = outcome(congruence_diagonal)
    assert got == outcome(reference.congruence_diagonal)
    if not isinstance(got, str):
        assert all(type(x) is Fraction for x in got[0])
        assert all(type(x) is Fraction for r in got[1].entries for x in r)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_construction_diagonal_certifies_nondegeneracy(rows):
    # the diagonal kept at construction is a congruence diagonal, and the
    # elimination rejects exactly the singular Gram matrices
    n = len(rows)
    gram = Matrix([[F(rows[min(i, j)][max(i, j)]) for j in range(n)]
                   for i in range(n)])
    if det(gram) == 0:
        with pytest.raises(Degenerate, match="must be nondegenerate"):
            QuadraticSpace(gram)
        return
    sp = QuadraticSpace(gram)
    diag, u = congruence_diagonal(gram)
    assert sp.diagonal == tuple(diag)
    d = u * gram * u.transpose()
    assert d == Matrix([[diag[i] if i == j else F(0) for j in range(n)]
                        for i in range(n)])
    pos = sum(1 for x in diag if x > 0)
    assert signature(sp) == (pos, n - pos)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_signature_congruence_invariance(rows):
    p = Matrix([[F(c) for c in r] for r in rows])
    if det(p) == 0:
        return
    base = DIAG_LORENTZ
    transformed = QuadraticSpace(p * base.gram * p.transpose())
    assert signature(transformed) == signature(base)


def test_orth_complement_examples():
    full = orth_complement(DIAG_LORENTZ, Matrix.zeros(0, 3))
    assert full.rows == 3
    nothing = orth_complement(DIAG_LORENTZ, Matrix.identity(3))
    assert nothing.rows == 0
    w = Matrix(((F(1), F(0), F(0)),))
    comp = orth_complement(DIAG_LORENTZ, w)
    assert comp.entries == ((F(0), F(1), F(0)), (F(0), F(0), F(1)))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                min_size=1, max_size=2))
def test_orth_complement_involution(rows):
    w = row_space(Matrix([[F(c) for c in r] for r in rows]))
    if w.rows == 0:
        return
    restricted = Matrix(tuple(tuple(DIAG_LORENTZ.form(u, v) for v in w.entries)
                              for u in w.entries))
    if det(restricted) == 0:
        return
    assert orth_complement(DIAG_LORENTZ, orth_complement(DIAG_LORENTZ, w)) == w


def bivector_pairing(space, biv, u, v):
    """Evaluate a Sym^2 element, written as a quadratic polynomial,
    against the q-lowered covectors of u and v; for the dual bivector
    this recovers q(u, v)."""
    lu = space.gram.vec(u)
    lv = space.gram.vec(v)
    acc = F(0)
    for exp, c in biv.items():
        i, j = [i for i, e in enumerate(exp) for _ in range(e)]
        if i == j:
            acc += c * lu[i] * lv[i]
        else:
            acc += c * (lu[i] * lv[j] + lu[j] * lv[i]) / 2
    return acc


def test_dual_bivector_identity():
    sp = space([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    b = dual_bivector(sp)
    assert b == {(2, 0, 0): F(1), (0, 2, 0): F(1), (0, 0, 2): F(1)}


def test_dual_bivector_scaled():
    sp = space([[2]])
    assert dual_bivector(sp) == {(2,): F(1, 2)}


def test_dual_bivector_hyperbolic():
    # inverse Gram equals the Gram itself; as a polynomial the x1*x2
    # coefficient is twice the tensor entry
    b = dual_bivector(HYPERBOLIC)
    assert b == {(1, 1): F(2)}


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
       st.lists(st.integers(-5, 5), min_size=3, max_size=3))
def test_dual_bivector_inverts_the_form(u, v):
    for sp in (DIAG_LORENTZ, space([[2, 1, 0], [1, 2, 1], [0, 1, 2]])):
        b = dual_bivector(sp)
        uu = tuple(F(c) for c in u)
        vv = tuple(F(c) for c in v)
        assert bivector_pairing(sp, b, uu, vv) == sp.form(uu, vv)


def test_is_isotropic():
    for v in ((F(0), F(0), F(0)), (F(1), F(0), F(1))):
        assert DIAG_LORENTZ.form(v, v) == 0
    ident = space([[1, 0], [0, 1]])
    assert ident.form((F(1), F(1)), (F(1), F(1))) != 0
