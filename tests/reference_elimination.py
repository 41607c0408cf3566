"""Reference elimination over any exact field scalar, Fractions or the
FieldElements of one number field: plain Gauss-Jordan elimination, the
kernel, solutions and inverse read off it, the determinant, and the
congruence diagonalization, each with the scalars' own arithmetic.

hodgekit eliminates on integer rows only; these are the oracles its
results are checked against, on rational matrices and, through the
regular representation, on matrices over a number field.
"""

from fractions import Fraction
from itertools import chain

from hodgekit.errors import Degenerate
from hodgekit.exactmath import Matrix
from hodgekit.exactmath.linalg import SolveResult, submatrix


def rref(m):
    """Reduced row-echelon form; returns (Matrix, pivot column tuple)."""
    a = [list(r) for r in m.entries]
    rows, cols = m.rows, m.cols
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot = None
        for r in range(pr, rows):
            if a[r][pc] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        a[pr], a[pivot] = a[pivot], a[pr]
        lead = a[pr][pc]
        a[pr] = [x / lead for x in a[pr]]
        for r in range(rows):
            if r != pr and a[r][pc] != 0:
                f = a[r][pc]
                a[r] = [x - f * y for x, y in zip(a[r], a[pr])]
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    return Matrix(a), tuple(pivots)


def row_space(m):
    """Canonical basis (nonzero RREF rows) of the row space."""
    r, pivots = rref(m)
    return submatrix(r, slice(len(pivots)), slice(None))


def rank(m):
    return len(rref(m)[1])


def kernel(m):
    """Canonical (RREF) basis of the right kernel, one row per basis
    vector; zero-row Matrix when the kernel is trivial."""
    r, pivots = rref(m)
    return _kernel_from_rref(r, pivots, m.cols, _zero_like(m))


def _zero_like(m):
    if m.rows and m.cols:
        return m.entries[0][0] * 0
    return Fraction(0)


def _kernel_from_rref(r, pivots, cols, zero):
    """Kernel basis of the first `cols` columns of a reduced row-echelon
    form whose pivots in those columns are `pivots`.  The basis vector
    of a free column c is e_c - sum_i r[i][c] e_(pivot i)."""
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return Matrix((), cols=cols)
    one = zero + 1
    basis = []
    for c in free:
        v = [zero] * cols
        v[c] = one
        for i, pc in enumerate(pivots):
            v[pc] = -r.entries[i][c]
        basis.append(v)
    return row_space(Matrix(basis))


def solve_linear(a, b):
    """Exact solution set of a x = b by one elimination on [a | b]."""
    if len(b) != a.rows:
        raise ValueError("shape mismatch")
    aug = Matrix(tuple(tuple(r) + (bv,) for r, bv in zip(a.entries, b)))
    r, pivots = rref(aug)
    zero = _zero_like(a)
    if a.cols in pivots:
        return SolveResult(None, _kernel_from_rref(r, pivots[:-1], a.cols, zero))
    x = [zero] * a.cols
    for i, pc in enumerate(pivots):
        x[pc] = r.entries[i][a.cols]
    return SolveResult(tuple(x), _kernel_from_rref(r, pivots, a.cols, zero))


def solve_blocks(a, blocks):
    """The X_k with a X_k = B_k for every block B_k, a of full column
    rank, by one elimination on [a | B_1 | ... | B_e]; None when a has a
    lower rank or some a X = B_k has no solution."""
    if any(b.rows != a.rows for b in blocks):
        raise ValueError("shape mismatch")
    aug = Matrix(tuple(ra + tuple(chain.from_iterable(rb)) for ra, *rb in
                       zip(a.entries, *(b.entries for b in blocks))))
    r, pivots = rref(aug)
    if pivots != tuple(range(a.cols)):
        return None
    out, start = [], a.cols
    for b in blocks:
        out.append(submatrix(r, slice(a.cols), slice(start, start + b.cols)))
        start += b.cols
    return tuple(out)


def inverse(m):
    """m^-1 as the solution of m X = I."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    x = solve_blocks(m, (Matrix.identity(m.rows, _zero_like(m) + 1),))
    if x is None:
        raise ValueError("matrix is singular")
    return x[0]


def det(m):
    """The determinant by elimination over the entries' field."""
    a = [list(r) for r in m.entries]
    n, result = m.rows, Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c] != 0), None)
        if pivot is None:
            return a[0][0] * 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            result = -result
        result = a[c][c] * result
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return result


def congruence_diagonal(gram):
    """Exact symmetric (congruence) diagonalization: returns (diagonal
    entries, basis matrix U) with U * gram * U^T diagonal, by the steps
    of qforms.congruence_diagonal on the entries themselves; a
    degenerate gram raises Degenerate."""
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
