"""Rational quadratic spaces: Gram matrices, signatures, orthogonal
complements, isotropy, and the dual bivector feeding the harmonic
quotient.

A QuadraticSpace may be built over Q (Fraction entries) or over a
number field (FieldElement entries); the signature is only defined for
rational Gram matrices.
"""

from fractions import Fraction
from itertools import chain
from math import gcd

from .errors import Degenerate, NotSymmetric
from .exactmath import FieldElement, Matrix, inverse, kernel
from .exactmath.linalg import (_dot, _integer_rows, _is_rational, _lowest,
                               _zero_like)
from .exactmath.numberfield import field_dot


def bilinear(gram, u, v):
    """u^T gram v = u . (gram v) for a nondegenerate Gram matrix; entries
    may lie in a number field, whose products are summed on integers and
    reduced once (numberfield.field_dot)."""
    w = gram.vec(v)
    if any(isinstance(x, FieldElement) for x in chain(u, w)):
        return field_dot(u, w)
    return _dot(u, w)


class QuadraticSpace:
    """Vector space with a nondegenerate symmetric Gram matrix.  The
    Gram matrix is diagonalized once, at construction: the elimination
    certifies nondegeneracy, and `diagonal` keeps its entries for the
    signature.  Spaces are equal when their Gram matrices are."""

    __slots__ = ("gram", "diagonal")

    def __init__(self, gram):
        if gram.rows != gram.cols:
            raise NotSymmetric("Gram matrix must be square")
        if not gram.is_symmetric():
            raise NotSymmetric("Gram matrix must be symmetric")
        try:
            diag, _ = congruence_diagonal(gram)
        except Degenerate:
            raise Degenerate("Gram matrix must be nondegenerate") from None
        self.gram = gram
        self.diagonal = tuple(diag)

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
    """Exact symmetric (congruence) diagonalization: returns (diagonal
    entries, basis matrix U) with U * gram * U^T diagonal.  Rows of U are
    the diagonalizing basis.  Every diagonal entry is nonzero; a
    degenerate gram raises Degenerate.

    Step k pivots on the diagonal entry of row k, first swapping in a
    later row and column with a nonzero diagonal entry; when the trailing
    block has a zero diagonal, column c of the first nonzero entry of
    row k is added to row and column k, which makes the pivot twice that
    entry.  Row k of a nonsingular trailing block is never zero, so a
    zero row k means a degenerate gram.  A rational gram is reduced on
    integer rows (_rational_congruence), with the same steps."""
    if _is_rational(gram):
        return _rational_congruence(gram)
    n = gram.rows
    g = [list(r) for r in gram.entries]
    zero = gram.entries[0][0] * 0 if n else Fraction(0)
    one = zero + 1
    u = [[one if i == j else zero for j in range(n)] for i in range(n)]
    diag = []
    for step in range(n):
        if g[step][step] == 0:
            p = next((r for r in range(step + 1, n) if g[r][r] != 0), None)
            if p is not None:
                g[step], g[p] = g[p], g[step]
                u[step], u[p] = u[p], u[step]
                for row in g:
                    row[step], row[p] = row[p], row[step]
            else:
                c = _hyperbolic_partner(g[step], step)
                for j in range(n):
                    g[step][j] = g[step][j] + g[c][j]
                for i in range(n):
                    g[i][step] = g[i][step] + g[i][c]
                for j in range(n):
                    u[step][j] = u[step][j] + u[c][j]
        d = g[step][step]
        diag.append(d)
        # only the trailing block is reduced: the row operations leave
        # there the Schur complement, which is symmetric, so the matching
        # column operations would only clear row `step`, never read again
        for r in range(step + 1, n):
            if g[r][step] != 0:
                f = g[r][step] / d
                for j in range(step + 1, n):
                    if g[step][j] != 0:
                        g[r][j] = g[r][j] - f * g[step][j]
                u[r] = [a - f * b if b != 0 else a for a, b in zip(u[r], u[step])]
    return diag, Matrix(u)


def _hyperbolic_partner(row, step):
    """The first column past `step` where row `step` of a trailing block
    with zero diagonal is nonzero; Degenerate when there is none."""
    c = next((c for c in range(step + 1, len(row)) if row[c] != 0), None)
    if c is None:
        raise Degenerate("degenerate block during diagonalization")
    return c


def _rational_congruence(gram):
    """congruence_diagonal of a rational gram on integer rows: row i is
    [G_i | U_i] as integers over a positive denominator, G_i zero before
    the current step, so the row operations act on whole rows and the
    column operations on the trailing columns of the rows left.  Each
    row operation cross-multiplies and removes the row content."""
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
                c = _hyperbolic_partner(rows[step][0][:n], step)
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


def orth_complement(space, w):
    """Canonical basis of the q-orthogonal complement of the row span of
    w; the full space for an empty w."""
    if w.rows == 0:
        return Matrix.identity(space.dim, _zero_like(space.gram) + 1)
    return kernel(w * space.gram)


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
