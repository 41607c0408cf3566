"""k-symplectic structures: exact Pfaffians, degeneracy-quadric
extraction, Clifford operator construction, and the dimension
divisibility bounds.

A candidate is a linearly independent family of antisymmetric matrices
Psi_1..Psi_k on a 4n-dimensional space.  Verification decides whether
the Pfaffian p(w) = Pf(sum w_i Psi_i), a form of degree 2n, has the
exact shape c * q(w)**n for a nondegenerate quadratic form q,
irreducible over Q, and checks that the combination has rank 2n at a
certified point of the quadric: over a quadratic extension Q(s) when
the quadric has no obvious rational point, as half the rational rank of
the regular representation.  p is never expanded: it is known by its
values on the principal lattice {w in N^k : |w| = 2n}, which is
unisolvent for forms of degree 2n (Nicolaides 1972; Chung and Yao
1977), each one Pfaffian of an integer matrix by skew-symmetric
elimination.  The family is one flat integer row form, a member's
entries per row (linalg._flatten): its rref is the independence check,
and sum c_i Psi_i is one product with its transpose, on integers at a
rational point.  The Clifford relations are checked column by column,
by matrix-vector products on integer rows.

The only candidate for q is read off at the first lattice point v with
p(v) != 0.  With A_i = Psi(v)^-1 Psi_i from one elimination, Jacobi's
formula gives the gradient g_i = p tr(A_i) / 2 and the Hessian
H_ij = p (tr A_i tr A_j / 4 - tr(A_i A_j) / 2) of p at v, so
n p H - (n - 1) g g^T = p**2 / 4 (tr A_i tr A_j - 2n tr(A_i A_j)); if
p = c q**n it is c**2 n**2 q(v)**(2n-1) Hess(q).  The candidate counts
only if c * q**n equals p at every lattice point.  q is reducible iff
its rank is at most 1, or it is 2 and -m is a rational square for a
nonzero principal 2x2 minor m of its matrix.
"""

from fractions import Fraction
from itertools import chain
from math import isqrt, lcm
from operator import mul

from .errors import (BasePointIsotropic, DegenerateQuadric, InternalError,
                     NotGenericallySymplectic, NotQuadricPower, OddDimension,
                     RelationsFail, TooLarge, ValidationError,
                     WrongRankOnQuadric)
from .exactmath import Matrix, NumberField, det, kernel, rank
from .exactmath.linalg import (_combine, _flatten, _integer_row, _integer_rows,
                               _unflatten, rref, solve_blocks)
from .exactmath.numberfield import regular_representation
from .qforms import bilinear, congruence_diagonal, lowered

MAX_VDIM = 8
MAX_K = 5


class KSymplecticCandidate:
    """Independent family of antisymmetric matrices, the image of a basis
    of W under a linear map W -> Lambda^2(V), its flat form and the
    transpose of that form, which every combination reads."""

    __slots__ = ("psis", "flat", "cols")

    def __init__(self, psis):
        if not psis:
            raise ValidationError("empty family")
        v_dim = psis[0].rows
        if v_dim % 4 != 0:
            raise ValidationError("dim V must be divisible by 4")
        if v_dim > MAX_VDIM:
            raise TooLarge(f"dim V = {v_dim} exceeds the cap {MAX_VDIM}")
        if len(psis) > MAX_K:
            raise TooLarge(f"k = {len(psis)} exceeds the cap {MAX_K}")
        for m in psis:
            if m.rows != v_dim or m.cols != v_dim:
                raise ValidationError("family matrices must share one shape")
            if not m.is_antisymmetric():
                raise ValidationError("family matrices must be antisymmetric")
        flat = Matrix.from_int_rows(tuple(map(_flatten, psis)), v_dim * v_dim)
        if len(rref(flat)[1]) != len(psis):
            raise ValidationError("family matrices must be linearly independent")
        self.psis, self.flat, self.cols = psis, flat, flat.transpose()

    @property
    def v_dim(self):
        return self.psis[0].rows

    @property
    def k(self):
        return len(self.psis)


def pfaffian(m):
    """Exact Pfaffian of a rational antisymmetric matrix, by skew-symmetric
    elimination on its integer rows over one denominator.  Step s pivots
    on rows 2s and 2s + 1, after swapping a nonzero entry of row 2s into
    column 2s + 1 (a swap of two indices negates the Pfaffian); entry
    (i, j) then becomes the Pfaffian of the principal submatrix on
    0..2s+1, i, j, so the division by the previous pivot is exact."""
    n = m.rows
    if m.cols != n:
        raise ValueError("Pfaffian of a non-square matrix")
    if n % 2 != 0:
        raise OddDimension("Pfaffian needs even dimension")
    form = _integer_rows(m)
    if form is False:
        raise TypeError("pfaffian requires a rational matrix")
    den = lcm(*(d for _, d in form))
    a = [[x * (den // d) for x in r] for r, d in form]
    if any(a[i][j] != -a[j][i] for i in range(n) for j in range(i + 1)):
        raise ValidationError("matrix is not antisymmetric")
    sign, prev = 1, 1
    for s in range(0, n, 2):
        j = next((j for j in range(s + 1, n) if a[s][j]), None)
        if j is None:
            return Fraction(0)
        if j != s + 1:
            a[j], a[s + 1] = a[s + 1], a[j]
            for r in a:
                r[j], r[s + 1] = r[s + 1], r[j]
            sign = -sign
        u, v = a[s], a[s + 1]
        p = u[s + 1]
        for i in range(s + 2, n):
            r = a[i]
            for c in range(s + 2, n):
                r[c] = (p * r[c] - u[i] * v[c] + u[c] * v[i]) // prev
        prev = p
    return Fraction(sign * prev, den ** (n // 2))


class KSymplecticReport:
    """Outcome of verification: the degeneracy quadric and scalar on
    success, a failure reason otherwise; the fields a run did not reach
    are None."""

    __slots__ = ("ok", "quadric", "scalar", "rank_on_quadric", "witness_point",
                 "witness_field_poly", "failure_reason")

    def __init__(self, ok, quadric, scalar, rank_on_quadric, witness_point,
                 witness_field_poly, failure_reason):
        self.ok = ok
        self.quadric = quadric
        self.scalar = scalar
        self.rank_on_quadric = rank_on_quadric
        self.witness_point = witness_point
        self.witness_field_poly = witness_field_poly
        self.failure_reason = failure_reason


def _fail(cls):
    return KSymplecticReport(False, None, None, None, None, None, cls.__name__)


def verify_k_symplectic(cand, seed=0):
    """Decide whether the family defines a k-symplectic structure: the
    Pfaffian of the generic combination must be c * q**n with q a
    nondegenerate quadratic form, and the combination must have rank
    (dim V)/2 at a certified point of {q = 0}.  The decision is exact and
    deterministic; seed is accepted for callers that pass one."""
    v_dim, k = cand.v_dim, cand.k
    n = v_dim // 4
    pairs = ((w, pfaffian(_combination(cand, w)))
             for w in _principal_lattice(k, 2 * n))
    head = []
    for v, pv in pairs:
        head.append((v, pv))
        if pv:
            break
    else:
        return _fail(NotGenericallySymplectic)
    psi_v = _combination(cand, v)
    if pv * pv != det(psi_v):
        raise InternalError("Pfaffian self-check failed: Pf^2 != det")
    root = _quadric_root(_trace_form(psi_v, cand.psis, n), n, v, pv,
                         chain(head, pairs))
    if root is None:
        return _fail(NotQuadricPower)
    qmat, scalar, q_rank = root
    if q_rank < k:
        return _fail(DegenerateQuadric)
    point, field_poly = _quadric_point(qmat)
    r = _rank_at(cand, point, field_poly)
    if r != v_dim // 2:
        return _fail(WrongRankOnQuadric)
    return KSymplecticReport(True, qmat, scalar, r, point, field_poly, None)


def _principal_lattice(k, d):
    """The C(d + k - 1, k - 1) points of N^k with coordinate sum d, from
    (d, 0, ..., 0) down in lex order: no nonzero form of degree d
    vanishes on all of them."""
    if k == 1:
        return [(d,)]
    return [(i,) + w for i in range(d, -1, -1)
            for w in _principal_lattice(k - 1, d - i)]


def _trace_form(psi_v, psis, n):
    """tr A_i tr A_j - 2n tr(A_i A_j) for A_i = Psi(v)^-1 Psi_i, from one
    elimination at a v with Pf Psi(v) != 0: a positive multiple of
    n p H - (n - 1) g g^T at v (module docstring).  Each A_i is taken
    over one common denominator, so the form is integral."""
    ops = solve_blocks(psi_v, psis)
    if ops is None:
        raise InternalError("Psi(v) is singular although Pf Psi(v) != 0")
    forms = [_integer_rows(a) for a in ops]
    den = lcm(*(d for f in forms for _, d in f))
    rows = [[x * (den // d) for r, d in f for x in r] for f in forms]
    dim = psi_v.rows
    cols = [[r[j * dim + i] for i in range(dim) for j in range(dim)]
            for r in rows]
    tr = [sum(r[::dim + 1]) for r in rows]
    return Matrix.from_int_rows(
        tuple(([ti * tj - 2 * n * sum(map(mul, r, c))
                for tj, c in zip(tr, cols)], 1) for ti, r in zip(tr, rows)),
        len(rows))


def _quadric_root(gram, n, v, pv, pairs):
    """(qmat, c, r) with p = c * q**n for the matrix qmat of rank r of a
    quadric q irreducible over Q with grlex-leading coefficient 1, or
    None.  gram is the candidate for q up to a nonzero scalar, pv = p(v)
    is nonzero, and pairs yields (w, p(w)) over the principal lattice of
    degree 2n: p = c * q**n iff p(w) q(v)**n = p(v) q(w)**n at every w,
    which also fails when q(v) = 0, as q**n != 0 is nonzero somewhere on
    the lattice.  pairs is read only until a point fails."""
    r = rank(gram)
    if r <= 1:
        return None
    k = gram.rows
    # a multiple of gram on integers, and q_e(w) = w^T e w
    flat = _flatten(gram)[0]
    e = [flat[i:i + k] for i in range(0, k * k, k)]

    def q_e(w):
        return sum(x * sum(map(mul, row, w)) for x, row in zip(w, e))

    qv = q_e(v) ** n
    if any(pw * qv != pv * q_e(w) ** n for w, pw in pairs):
        return None
    if r == 2:
        # q splits over Q iff -m is a square for a nonzero 2x2 minor m
        minors = (e[i][i] * e[j][j] - e[i][j] ** 2
                  for i in range(k) for j in range(i + 1, k))
        if _is_square(-next(m for m in minors if m)) is not None:
            return None
    # the coefficient of q_e's grlex-leading monomial: t_0^2, t_0 t_1, ...
    lead = next(e[i][j] * (1 + (i != j))
                for i in range(k) for j in range(i, k) if e[i][j])
    qmat = Matrix(tuple(tuple(Fraction(x, lead) for x in row) for row in e))
    return qmat, pv * lead ** n / qv, r


def _is_square(f):
    if f < 0:
        return None
    p, q = f.numerator, f.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def _quadric_point(qmat):
    """A certified nonzero point on {q = 0}: rational when some
    diagonalized pair of entries has a rational square ratio, otherwise
    over the quadratic extension adjoining that square root.  Returns
    (point coordinates, extension polynomial or None)."""
    diag, u = congruence_diagonal(qmat)
    k = qmat.rows
    for i in range(k):
        for j in range(i + 1, k):
            r = _is_square(-diag[i] / diag[j])
            if r is not None:
                point = tuple(a + r * b
                              for a, b in zip(u.entries[i], u.entries[j]))
                return point, None
    if k < 2:
        raise InternalError("one-variable nondegenerate quadric has no point")
    # x^2 - mu is irreducible: mu is no rational square (the loop above)
    mu = -diag[0] / diag[1]
    field = NumberField((-mu, Fraction(0), Fraction(1)))
    r = field.gen()
    point = tuple(field.from_rational(a) + r * field.from_rational(b)
                  for a, b in zip(u.entries[0], u.entries[1]))
    return point, field.defining_poly


def _combination(cand, point):
    """sum c_i Psi_i at the point c, from the transposed flat form: one
    integer matrix-vector product at a rational c, Matrix.vec at a c over
    a number field, reshaped to the members' shape."""
    width, cols = cand.psis[0].cols, cand.cols
    if all(isinstance(x, (int, Fraction)) for x in point):
        return _unflatten((_combine(cols, _integer_row(point)),), width)[0]
    flat = cols.vec(point)
    return Matrix(flat[i:i + width] for i in range(0, len(flat), width))


def _rank_at(cand, point, field_poly):
    """The rank of sum c_i Psi_i at the point c, rational or over
    Q(s) = Q[x]/(field_poly): over Q(s), half the rational rank of its
    regular representation."""
    if field_poly is None:
        return rank(_combination(cand, point))
    return rank(regular_representation(_combination(cand, point))) // 2


class CliffordResult:
    """Operators A_i = Psi(w0)^-1 Psi(w_i) on an orthogonal basis of the
    complement of the base point: pairwise anticommuting with scalar
    squares, i.e. a Clifford module structure on V."""

    __slots__ = ("operators", "squares", "base_point", "orth_basis")

    def __init__(self, operators, squares, base_point, orth_basis):
        self.operators = operators
        self.squares = squares
        self.base_point = base_point
        self.orth_basis = orth_basis


def clifford_operators(cand, report, omega0):
    """Clifford module verification at an anisotropic base point."""
    if not report.ok:
        raise ValidationError("report does not certify a k-symplectic structure")
    q = report.quadric
    omega0 = tuple(Fraction(c) for c in omega0)
    norm0 = bilinear(q, omega0, omega0)
    if norm0 == 0:
        raise BasePointIsotropic("base point lies on the quadric")
    # C spans the complement of omega0; congruence-diagonalizing
    # C q C^T by U makes the rows of U C q-orthogonal, row i being C^T u_i
    comp = kernel(Matrix((q.vec(omega0),)))
    _, u = congruence_diagonal(lowered(q, comp)[1])
    obasis = tuple(map(comp.transpose().vec, u.entries))
    # every Psi(w0)^-1 Psi(w_i) from one elimination
    ops = solve_blocks(_combination(cand, omega0),
                       tuple(_combination(cand, w) for w in obasis))
    if ops is None:
        raise InternalError("Psi(base point) is singular despite anisotropy")
    # with a_il column l of A_i: A_i^2 = lam_i I iff A_i a_il = lam_i e_l,
    # and A_i A_j + A_j A_i = 0 iff A_i a_jl + A_j a_il = 0, for every l
    cols = [a.transpose().entries for a in ops]
    squares = []
    for i, a in enumerate(ops):
        sq = [a.vec(c) for c in cols[i]]
        lam = sq[0][0]
        if lam == 0 or any(x != lam * (r == col) for col, v in enumerate(sq)
                           for r, x in enumerate(v)):
            raise RelationsFail("operator square is not a nonzero scalar")
        squares.append(lam)
        for j in range(i):
            if any(x + y != 0 for cj, ci in zip(cols[j], cols[i])
                   for x, y in zip(a.vec(cj), ops[j].vec(ci))):
                raise RelationsFail("operators fail to anticommute")
    return CliffordResult(tuple(ops), tuple(squares), omega0, obasis)


def divisibility_bound(k):
    """2**floor((k-1)/2): dim V of any k-symplectic space is divisible by
    this Clifford-module bound."""
    if k < 1:
        raise ValidationError("k must be at least 1")
    return 2 ** ((k - 1) // 2)


def torus_bound(d):
    """2**floor((d+1)/2): divisibility bound for the first cohomology of
    a symplectic torus inside a manifold generic in a d-dimensional
    deformation family."""
    if d < 0:
        raise ValidationError("d must be nonnegative")
    return 2 ** ((d + 1) // 2)


def check_torus(d, dim_h1):
    """Whether dim H^1 of the torus satisfies the divisibility bound."""
    return dim_h1 % torus_bound(d) == 0


def subvariety_bound(d, e):
    """(d+2)*e: lower bound for the dimension of the degree-2
    transcendental cohomology of a symplectic subvariety."""
    if d < 0 or e < 1:
        raise ValidationError("need d >= 0 and e >= 1")
    return (d + 2) * e
