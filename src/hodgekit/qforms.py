"""Rational quadratic spaces: Gram matrices, signatures, orthogonal
complements, isotropy, and the dual bivector feeding the harmonic
quotient.

A QuadraticSpace may be built over Q (Fraction entries) or over a
number field (FieldElement entries); the signature is only defined for
rational Gram matrices.
"""

from fractions import Fraction

from .errors import Degenerate, NotSymmetric
from .exactmath import Matrix, inverse, kernel
from .exactmath.linalg import _dot


def bilinear(gram, u, v):
    """u^T gram v = u . (gram v) for a nondegenerate Gram matrix; entries
    may lie in a number field."""
    return _dot(u, gram.vec(v))


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

    def is_isotropic(self, v):
        return self.form(v, v) == 0

    def one(self):
        for r in self.gram.entries:
            for a in r:
                if a != 0:
                    return a / a
        raise Degenerate("zero Gram matrix")


def congruence_diagonal(gram):
    """Exact symmetric (congruence) diagonalization: returns (diagonal
    entries, basis matrix U) with U * gram * U^T diagonal.  Rows of U are
    the diagonalizing basis.  Every diagonal entry is nonzero; a
    degenerate gram raises Degenerate."""
    n = gram.rows
    g = [list(r) for r in gram.entries]
    zero = gram.entries[0][0] * 0 if n else Fraction(0)
    one = zero + 1
    u = [[one if i == j else zero for j in range(n)] for i in range(n)]
    diag = []
    for step in range(n):
        if g[step][step] == 0:
            p = None
            for r in range(step + 1, n):
                if g[r][r] != 0:
                    p = r
                    break
            if p is not None:
                g[step], g[p] = g[p], g[step]
                u[step], u[p] = u[p], u[step]
                for row in g:
                    row[step], row[p] = row[p], row[step]
            else:
                # all remaining diagonal entries vanish: use the 2x2
                # hyperbolic trick on a nonzero off-diagonal entry
                found = None
                for r in range(step, n):
                    for c in range(r + 1, n):
                        if g[r][c] != 0:
                            found = (r, c)
                            break
                    if found:
                        break
                if found is None:
                    raise Degenerate("degenerate block during diagonalization")
                r, c = found
                for j in range(n):
                    g[r][j] = g[r][j] + g[c][j]
                for i in range(n):
                    g[i][r] = g[i][r] + g[i][c]
                for j in range(n):
                    u[r][j] = u[r][j] + u[c][j]
                if r != step:
                    g[step], g[r] = g[r], g[step]
                    u[step], u[r] = u[r], u[step]
                    for row in g:
                        row[step], row[r] = row[r], row[step]
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


def signature(space):
    """Signature (positives, negatives) read off the space's congruence
    diagonal (rational Gram matrices only)."""
    if space.dim and not isinstance(space.gram.entries[0][0], Fraction):
        raise TypeError("signature requires a rational Gram matrix")
    pos = sum(1 for d in space.diagonal if d > 0)
    return pos, space.dim - pos


def orth_complement(space, w):
    """Canonical basis of the q-orthogonal complement of the row span of
    w; the full space for an empty w."""
    if w.rows == 0:
        return Matrix.identity(space.dim, space.one())
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
