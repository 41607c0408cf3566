"""Rational quadratic spaces: Gram matrices, signatures, orthogonal
complements, isotropy, and the dual bivector feeding the harmonic
quotient.

A QuadraticSpace may be built over Q (Fraction entries) or over a
number field (FieldElement entries).  A rational Gram matrix is
diagonalized by congruence on integers, which also certifies it
nondegenerate; one over a number field E is certified by the
determinant of its regular representation, the norm from E to Q of its
determinant.  The signature, the congruence diagonal and orthogonal
complements are only defined for rational Gram matrices.
"""

from fractions import Fraction
from itertools import chain
from math import gcd

from .errors import Degenerate, NotSymmetric
from .exactmath import FieldElement, Matrix, det, inverse, kernel
from .exactmath.linalg import (_dot, _integer_rows, _integer_vec, _is_rational,
                               _lowest)
from .exactmath.numberfield import field_dot, regular_representation


def bilinear(gram, u, v):
    """u^T gram v = u . (gram v) for a nondegenerate Gram matrix; entries
    may lie in a number field, whose products are summed on integers and
    reduced once (numberfield.field_dot)."""
    w = gram.vec(v)
    if any(isinstance(x, FieldElement) for x in chain(u, w)):
        return field_dot(u, w)
    return _dot(u, w)


class QuadraticSpace:
    """Vector space with a nondegenerate symmetric Gram matrix.  A
    rational Gram matrix is diagonalized once, at construction: the
    elimination certifies nondegeneracy, and `diagonal` keeps its entries
    for the signature.  Over a number field the determinant of the
    regular representation certifies it, and `diagonal` is None.  Spaces
    are equal when their Gram matrices are."""

    __slots__ = ("gram", "diagonal")

    def __init__(self, gram):
        if gram.rows != gram.cols:
            raise NotSymmetric("Gram matrix must be square")
        if not gram.is_symmetric():
            raise NotSymmetric("Gram matrix must be symmetric")
        if not _is_rational(gram):
            self.diagonal = None
            if det(regular_representation(gram)) == 0:
                raise Degenerate("Gram matrix must be nondegenerate")
        else:
            try:
                self.diagonal = tuple(congruence_diagonal(gram)[0])
            except Degenerate:
                raise Degenerate("Gram matrix must be nondegenerate") from None
        self.gram = gram

    def __eq__(self, other):
        if other.__class__ is not QuadraticSpace:
            return NotImplemented
        return self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    @property
    def dim(self):
        return self.gram.rows

    def form(self, u, v):
        """The bilinear form q(u, v); entries may lie in a number field."""
        return bilinear(self.gram, u, v)


def congruence_diagonal(gram):
    """Exact symmetric (congruence) diagonalization of a rational gram:
    returns (diagonal entries, basis matrix U) with U * gram * U^T
    diagonal.  Rows of U are the diagonalizing basis.  Every diagonal
    entry is nonzero; a degenerate gram raises Degenerate.

    Step k pivots on the diagonal entry of row k, first swapping in a
    later row and column with a nonzero diagonal entry; when the trailing
    block has a zero diagonal, column c of the first nonzero entry of
    row k is added to row and column k, which makes the pivot twice that
    entry.  Row k of a nonsingular trailing block is never zero, so a
    zero row k means a degenerate gram.  Only the trailing block is
    reduced: the row operations leave there the Schur complement, which
    is symmetric, so the matching column operations would only clear row
    k, never read again.

    The gram is reduced on integer rows: row i is [G_i | U_i] as integers
    over a positive denominator, G_i zero before the current step, so the
    row operations act on whole rows and the column operations on the
    trailing columns of the rows left.  Each row operation
    cross-multiplies and removes the row content."""
    if not _is_rational(gram):
        raise TypeError("congruence_diagonal requires a rational Gram matrix")
    n = gram.rows
    rows = [[list(r) + [d if j == i else 0 for j in range(n)], d]
            for i, (r, d) in enumerate(_integer_rows(gram))]
    diag = []
    for step in range(n):
        if not rows[step][0][step]:
            p = next((r for r in range(step + 1, n) if rows[r][0][r]), None)
            if p is not None:
                rows[step], rows[p] = rows[p], rows[step]
                for a, _ in rows[step:]:
                    a[step], a[p] = a[p], a[step]
            else:
                c = next((c for c in range(step + 1, n) if rows[step][0][c]),
                         None)
                if c is None:
                    raise Degenerate("degenerate block during diagonalization")
                (a, da), (b, db) = rows[step], rows[c]
                g = gcd(da, db)
                rows[step] = _lowest([x * (db // g) + y * (da // g)
                                      for x, y in zip(a, b)], da // g * db)
                for a, _ in rows[step:]:
                    a[step] += a[c]
        b, db = rows[step]
        diag.append(Fraction(b[step], db))
        for r in range(step + 1, n):
            a, da = rows[r]
            if a[step]:
                # a / da - (a[step] / da) / (b[step] / db) * b / db
                g = gcd(b[step], a[step])
                u, v = b[step] // g, a[step] // g
                rows[r] = _lowest([u * x - v * y for x, y in zip(a, b)], da * u)
    return diag, Matrix.from_int_rows(tuple((a[n:], d) for a, d in rows), n)


def signature(space):
    """Signature (positives, negatives) read off the space's congruence
    diagonal (rational Gram matrices only)."""
    if not _is_rational(space.gram):
        raise TypeError("signature requires a rational Gram matrix")
    pos = sum(1 for d in space.diagonal if d > 0)
    return pos, space.dim - pos


def lowered(gram, basis):
    """B G, whose kernel is the orthogonal complement of the rational
    basis B, and the Gram matrix B G B^T of q on its span.  G is
    symmetric, so row i of B G is G b_i, and the Gram matrix is
    symmetric, so its row j is (B G) b_j: matrix-vector products on the
    integer rows of B."""
    def images(m):
        rows = []
        for b, d in _integer_rows(basis):
            image, den = _integer_vec(m, b)
            rows.append((image, den * d))
        return Matrix.from_int_rows(rows, m.rows)
    bg = images(gram)
    return bg, images(bg)


def orth_complement(space, w):
    """Canonical basis of the q-orthogonal complement of the row span of
    w; the full space for an empty w."""
    if w.rows == 0:
        return Matrix.identity(space.dim)
    return kernel(lowered(space.gram, w)[0])


def dual_bivector(space):
    """The symmetric 2-tensor with matrix gram**-1, written as a
    quadratic polynomial in the basis coordinates: the coefficient of
    x_i*x_j for i < j is twice the tensor entry and the coefficient of
    x_i**2 is the diagonal entry."""
    b = inverse(space.gram)
    n = space.dim
    out = {}
    for i in range(n):
        for j in range(i, n):
            c = b.entries[i][j] if i == j else b.entries[i][j] + b.entries[j][i]
            if c != 0:
                exp = [0] * n
                exp[i] += 1
                exp[j] += 1
                out[tuple(exp)] = c
    return out
