"""Exact dense linear algebra over the rationals, with products and
inverses over a number field.

Matrices are immutable tuples of tuples.  Entries may be Fractions or
FieldElements of one number field; no floating point is used anywhere.
Reduced row-echelon forms have leading coefficient 1, and kernel bases
are re-echelonized, so every output is canonical and byte-reproducible.

A rational matrix has one integer row form: each row as integer
numerators over a positive denominator.  A matrix built from Fractions
gets it on first use, as each row over the lcm of its denominators; a
matrix built from the form itself (Matrix.from_int_rows) builds its
Fraction entries only when they are read.  rref, det, vec, coords_in
and is_symmetric read the form.  rref makes the rows primitive,
Gauss-Jordan steps cross-multiply and remove the row content again, and
each nonzero row of the result is kept as its primitive integers over
its pivot; the reduced row-echelon form is unique, so this gives the
same result as elimination over the Fractions.  row_space, kernel and
solve_blocks pass such rows on, so a chain of eliminations makes no
Fraction.  det runs Bareiss's fraction-free elimination, and vec one
integer dot product per output coordinate.  A family of matrices is
flat: one integer row per member, its entries row by row (_flatten,
_unflatten), and sum c_k M_k is one integer product with the transpose.

Integer elimination is the only elimination: rref, kernel, row_space,
rank, solve_linear, solve_blocks and det raise TypeError on a matrix
with number-field entries.  Such a matrix is multiplied, added and
applied to vectors entry by entry, and inverse reduces it to one
rational inverse of its regular representation
(numberfield.field_matrix_inverse).
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul


class Matrix:
    __slots__ = ("entries", "rows", "cols", "_int_rows")

    def __init__(self, entries, cols=None):
        self.entries = tuple(tuple(r) for r in entries)
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else (cols or 0)
        if any(len(r) != self.cols for r in self.entries):
            raise ValueError("ragged matrix")
        self._int_rows = None    # set by _integer_rows on first use

    @classmethod
    def from_int_rows(cls, form, cols):
        """The rational matrix with the given integer row form, one
        (numerators, denominator > 0) pair per row; its entries are built
        on first read."""
        m = cls.__new__(cls)
        m._int_rows = tuple(form)
        m.rows, m.cols = len(m._int_rows), cols
        if any(len(r) != cols for r, _ in m._int_rows):
            raise ValueError("ragged matrix")
        return m

    def __getattr__(self, name):
        # reached only while a slot is unset: the entries of a matrix made
        # by from_int_rows, before their first read
        if name != "entries":
            raise AttributeError(name)
        self.entries = tuple(tuple(Fraction(x, d) for x in r)
                             for r, d in self._int_rows)
        return self.entries

    @classmethod
    def identity(cls, n, one=Fraction(1)):
        zero = one * 0
        return cls(tuple(tuple(one if i == j else zero for j in range(n))
                         for i in range(n)))

    @classmethod
    def zeros(cls, rows, cols):
        return cls(tuple((Fraction(0),) * cols for _ in range(rows)),
                   cols=cols)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Matrix({self.entries!r})"

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(tuple(tuple(a + b for a, b in zip(ra, rb))
                            for ra, rb in zip(self.entries, other.entries)))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            cols = list(zip(*other.entries))
            return Matrix(tuple(
                tuple(_dot(r, c) for c in cols) for r in self.entries))
        return Matrix(tuple(tuple(a * other for a in r) for r in self.entries))

    def transpose(self):
        if self._int_rows:
            den = lcm(*(d for _, d in self._int_rows))
            cols = zip(*([x * (den // d) for x in r] for r, d in self._int_rows))
            return Matrix.from_int_rows(tuple((c, den) for c in cols), self.rows)
        return Matrix(tuple(zip(*self.entries)) if self.rows
                      else ((),) * self.cols, cols=self.rows)

    def vec(self, v):
        """Matrix-vector product; v may hold rationals or elements of one
        number field.  A rational matrix works on integers (_rational_vec).
        Otherwise zero matrix entries are skipped, and a row of zeros
        gives r[0] * v[0], the zero of the product's type."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        if _is_rational(self):
            return _rational_vec(self, v)
        out = []
        for r in self.entries:
            acc = None
            for a, b in zip(r, v):
                if a != 0:
                    acc = a * b if acc is None else acc + a * b
            out.append(r[0] * v[0] if acc is None and r else acc)
        return tuple(out)

    def is_symmetric(self, sign=1):
        """Whether the transpose is sign (1 or -1) times the matrix."""
        form = _integer_rows(self)
        if form:                # r_i[j] / d_i == sign r_j[i] / d_j
            return all(r[j] * form[j][1] == sign * form[j][0][i] * d
                       for i, (r, d) in enumerate(form) for j in range(i + 1))
        return all(self.entries[i][j] == sign * self.entries[j][i]
                   for i in range(self.rows) for j in range(i + 1))

    def is_antisymmetric(self):
        return self.is_symmetric(-1)


def _dot(r, c):
    acc = None
    for a, b in zip(r, c):
        acc = a * b if acc is None else acc + a * b
    return acc


def _is_rational(m):
    return _integer_rows(m) is not False


def _integer_rows(m):
    """_integer_row of each row of m, or False when some entry is not
    rational; built once per matrix, so no caller may change the rows."""
    form = m._int_rows
    if form is None:
        rational = all(isinstance(x, (int, Fraction))
                       for r in m.entries for x in r)
        form = m._int_rows = (tuple(map(_integer_row, m.entries))
                                 if rational else False)
    return form


def _primitive(row):
    """The integer row divided by its content."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_row(row):
    """The rational row times the lcm of its denominators: (integers, lcm)."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def _lowest(row, den):
    """The integer row over the nonzero den in lowest terms, with a
    positive denominator: (row, den)."""
    g = gcd(den, *row)
    if den < 0:
        g = -g
    return ([x // g for x in row], den // g) if g != 1 else (row, den)


def _join(parts):
    """The rational vectors n / d of the (n, d) parts, concatenated, as
    integers over one denominator: (integers, lcm of the d)."""
    den = lcm(*(d for _, d in parts))
    return [x * (den // d) for n, d in parts for x in n], den


def _integer_vec(m, col):
    """m col for a rational m and an integer column, as integers over one
    denominator: (integers, lcm of the row denominators)."""
    form = _integer_rows(m)
    den = lcm(*(d for _, d in form))
    return [sum(map(mul, r, col)) * (den // d) for r, d in form], den


def _flatten(m):
    """The entries of a rational matrix row by row, as integers over one
    denominator: (integers, denominator)."""
    return _join(_integer_rows(m))


def _unflatten(rows, c):
    """The matrices with c columns whose entries, row by row, are the
    integer rows (integers, denominator): the members of a flat family."""
    return tuple(Matrix.from_int_rows(
        tuple((r[i:i + c], d) for i in range(0, len(r), c)), c)
        for r, d in rows)


def _combine(cols, coeffs):
    """sum_k c_k v_k / den over the columns v_k of the rational matrix
    cols, for the coefficient row (integers c_k, den), on integers:
    (integers, denominator)."""
    acc, d = _integer_vec(cols, coeffs[0])
    return acc, d * coeffs[1]


def _rational_vec(m, v):
    """m v for a rational m.  v becomes integer columns over one common
    denominator: one column for a rational v; for a v over a number field,
    one column per power-basis coordinate of the elements' integer
    numerators, a rational entry c counting as (c, 0, ..., 0).  Each
    output coordinate is one integer dot product with a row of m, over
    the row's denominator times that denominator."""
    x = next((a for a in v if not isinstance(a, (int, Fraction))), None)
    if x is None:
        col, den = _integer_row(v)
        return tuple(Fraction(sum(map(mul, r, col)), d * den)
                     for r, d in _integer_rows(m))
    field = x.parent
    v = [field.from_rational(a) if isinstance(a, (int, Fraction)) else a
         for a in v]
    if any(a.parent != field for a in v):
        raise ValueError("elements of different fields")
    flat, den = _join([(a.num, a.den) for a in v])
    cols = [flat[k::field.degree] for k in range(field.degree)]
    return tuple(field.element_over([sum(map(mul, r, c)) for c in cols],
                                    d * den)
                 for r, d in _integer_rows(m))


def rref(m):
    """Reduced row-echelon form of a rational matrix, on primitive integer
    rows; returns (Matrix, pivot column tuple).  Each nonzero row of the
    result is its primitive integers over its pivot, made positive."""
    if not _is_rational(m):
        raise TypeError("rref requires a rational matrix")
    a = [_primitive(r) for r, _ in _integer_rows(m)]
    rows, cols = m.rows, m.cols
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot = next((r for r in range(pr, rows) if a[r][pc]), None)
        if pivot is None:
            continue
        a[pr], a[pivot] = a[pivot], a[pr]
        p = a[pr]
        for r in range(rows):
            f = a[r][pc]
            if r != pr and f:
                g = gcd(p[pc], f)
                u, v = p[pc] // g, f // g
                a[r] = _primitive([u * x - v * y for x, y in zip(a[r], p)])
        pivots.append(pc)
        pr += 1
        if pr == rows:
            break
    form = [_lowest(a[i], a[i][pc]) for i, pc in enumerate(pivots)]
    form += [((0,) * cols, 1)] * (rows - pr)
    return Matrix.from_int_rows(form, cols), tuple(pivots)


def submatrix(m, rows, cols):
    """The rows and columns of m in the two slices, keeping an integer
    row form."""
    width = len(range(m.cols)[cols])
    if m._int_rows:
        return Matrix.from_int_rows(
            tuple((r[cols], d) for r, d in m._int_rows[rows]), width)
    return Matrix(tuple(r[cols] for r in m.entries[rows]), cols=width)


def row_space(m):
    """Canonical basis (nonzero RREF rows) of the row space."""
    r, pivots = rref(m)
    return submatrix(r, slice(len(pivots)), slice(None))


def rank(m):
    return len(rref(m)[1])


def coords_in(basis, v):
    """Coordinates of v over a rational RREF row basis, read off the
    pivot columns; None when v is outside the span.  Entries of v may lie
    in a number field: v is compared with the combination of the basis
    rows, taken on integers by vec."""
    coords = tuple(v[next(j for j, x in enumerate(r) if x)]
                   for r, _ in _integer_rows(basis))
    return coords if basis.transpose().vec(coords) == tuple(v) else None


def kernel(m):
    """Canonical (RREF) basis of the right kernel, one row per basis
    vector; zero-row Matrix when the kernel is trivial."""
    r, pivots = rref(m)
    return _kernel_from_rref(r, pivots, m.cols)


def _kernel_from_rref(r, pivots, cols):
    """Kernel basis of the first `cols` columns of a reduced row-echelon
    form whose pivots in those columns are `pivots`.  The basis vector
    of a free column c is e_c - sum_i r[i][c] e_(pivot i), taken times
    the lcm of the denominators of the integer row form."""
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return Matrix.zeros(0, cols)
    rows = r._int_rows[:len(pivots)]
    basis = []
    for c in free:
        den = lcm(*(d for x, d in rows if x[c]))
        v = [0] * cols
        v[c] = den
        for (x, d), pc in zip(rows, pivots):
            v[pc] = -x[c] * (den // d)
        basis.append((v, 1))
    return row_space(Matrix.from_int_rows(basis, cols))


class SolveResult:
    """Full solution set of A x = b: one particular solution (None when
    the system is inconsistent) and the canonical kernel basis."""

    __slots__ = ("particular", "kernel")

    def __init__(self, particular, kernel):
        self.particular = particular
        self.kernel = kernel


def solve_linear(a, b):
    """Exact solution set of a x = b by one elimination on [a | b]: the
    left block of its RREF is the RREF of a, so the kernel is read off
    the same elimination."""
    if len(b) != a.rows:
        raise ValueError("shape mismatch")
    aug = Matrix(tuple(tuple(r) + (bv,) for r, bv in zip(a.entries, b)))
    r, pivots = rref(aug)
    if a.cols in pivots:
        return SolveResult(None, _kernel_from_rref(r, pivots[:-1], a.cols))
    x = [Fraction(0)] * a.cols
    for i, pc in enumerate(pivots):
        x[pc] = r.entries[i][a.cols]
    return SolveResult(tuple(x), _kernel_from_rref(r, pivots, a.cols))


def det(m):
    """Determinant of a rational matrix by Bareiss's elimination on its
    integer rows: after step k every entry below row k is a (k+1)-minor,
    so the division by the previous pivot is exact."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if not _is_rational(m):
        raise TypeError("det requires a rational matrix")
    a, sign, den = [], 1, 1
    for row, d in _integer_rows(m):
        a.append(row)
        den *= d
    n = m.rows
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        p = a[k]
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(p[k] * x - f * y) // prev for x, y in zip(a[i], p)]
        prev = p[k]
    return Fraction(sign * prev, den)


def solve_blocks(a, blocks):
    """The X_k with a X_k = B_k for every block B_k, a of full column
    rank, by one elimination on [a | B_1 | ... | B_e]: its RREF is
    [I | X_1 | ... | X_e] over zero rows exactly when every pivot lies
    in a's columns.  None otherwise, that is when a has a lower rank or
    some a X = B_k has no solution."""
    if any(b.rows != a.rows for b in blocks):
        raise ValueError("shape mismatch")
    if not all(map(_is_rational, (a,) + tuple(blocks))):
        raise TypeError("solve_blocks requires rational matrices")
    aug = Matrix.from_int_rows(
        tuple(map(_join, zip(*map(_integer_rows, (a,) + tuple(blocks))))),
        a.cols + sum(b.cols for b in blocks))
    r, pivots = rref(aug)
    if pivots != tuple(range(a.cols)):
        return None
    out, start = [], a.cols
    for b in blocks:
        out.append(submatrix(r, slice(a.cols), slice(start, start + b.cols)))
        start += b.cols
    return tuple(out)


def inverse(m):
    """m^-1: for a rational m the solution of m X = I, for a matrix over
    a number field one rational inverse of its regular representation
    (numberfield.field_matrix_inverse)."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    if _is_rational(m):
        x = solve_blocks(m, (Matrix.identity(m.rows),))
        if x is not None:
            return x[0]
    else:
        from .numberfield import field_matrix_inverse
        x = field_matrix_inverse(m)
        if x is not None:
            return x
    raise ValueError("matrix is singular")
