"""k-symplectic structures: symbolic Pfaffians, degeneracy-quadric
extraction, Clifford operator construction, and the dimension
divisibility bounds.

A candidate is a linearly independent family of antisymmetric matrices
Psi_1..Psi_k on a 4n-dimensional space.  Verification computes the
Pfaffian p of the generic combination sum t_i Psi_i, demands the exact
shape c * q(t)**n for a nondegenerate quadratic form q, irreducible
over Q, and checks that the combination has rank 2n at a certified
point of the quadric: over a quadratic extension Q(s) when the quadric
has no obvious rational point, as half the rational rank of the regular
representation.  The family is one flat integer row form, a member's
entries per row (linalg._flatten): its rref is the independence check,
the Pfaffian's coefficients are read off its rows, and sum c_i Psi_i is
one product with its transpose, on integers at a rational point.  The
Clifford relations are checked column by column, by matrix-vector
products on integer rows.

The only candidate for q is read off at one point v with p(v) != 0:
if p = c q**n, then n p H - (n - 1) g g^T = c**2 n**2 q(v)**(2n-1) Hess(q)
for the gradient g and Hessian H of p at v.  The candidate counts only
if c * q**n reproduces p exactly.  q is reducible iff its rank is at
most 1, or it is 2 and -m is a rational square for a nonzero principal
2x2 minor m of its matrix.
"""

from fractions import Fraction
from itertools import product
from math import isqrt
import random

from .errors import (BasePointIsotropic, DegenerateQuadric, InternalError,
                     NotGenericallySymplectic, NotQuadricPower, OddDimension,
                     RelationsFail, TooLarge, ValidationError,
                     WrongRankOnQuadric)
from .exactmath import Matrix, NumberField, det, kernel, rank
from .exactmath.linalg import (_combine, _flatten, _integer_row, _integer_rows,
                               _unflatten, rref, solve_blocks)
from .exactmath.mpoly import (mp_add, mp_diff, mp_eval, mp_items_grlex, mp_mul,
                              mp_neg, mp_pow, mp_scale)
from .exactmath.numberfield import regular_representation
from .qforms import bilinear, congruence_diagonal, lowered

MAX_VDIM = 8
MAX_K = 5


class KSymplecticCandidate:
    """Independent family of antisymmetric matrices, the image of a basis
    of W under a linear map W -> Lambda^2(V), and its flat form."""

    __slots__ = ("psis", "flat")

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
        self.psis, self.flat = psis, flat

    @property
    def v_dim(self):
        return self.psis[0].rows

    @property
    def k(self):
        return len(self.psis)


class PfaffianForm:
    """Homogeneous Pfaffian polynomial of the generic combination."""

    __slots__ = ("k", "poly")

    def __init__(self, k, poly):
        self.k = k
        self.poly = poly  # grlex-sorted ((exponents, Fraction), ...)

    def as_dict(self):
        return dict(self.poly)


def pfaffian(entries, seed=0):
    """Exact Pfaffian of an antisymmetric matrix with polynomial entries
    (dicts mapping exponent tuples to Fractions), by recursive expansion
    along the first row; self-checked against det on random rational
    specializations."""
    n = len(entries)
    if n % 2 != 0:
        raise OddDimension("Pfaffian needs even dimension")
    if n > MAX_VDIM:
        raise TooLarge(f"dimension {n} exceeds the cap {MAX_VDIM}")
    nvars = 0
    for i in range(n):
        for j in range(n):
            if entries[i][j] != mp_neg(entries[j][i]):
                raise ValidationError("matrix is not antisymmetric")
            if entries[i][j]:
                nvars = len(next(iter(entries[i][j])))
    memo = {}

    def pf(idx):
        if not idx:
            return {(0,) * nvars: Fraction(1)}
        key = idx
        if key in memo:
            return memo[key]
        first = idx[0]
        rest = idx[1:]
        acc = {}
        for pos, j in enumerate(rest):
            a = entries[first][j]
            if a:
                sub = pf(tuple(x for x in rest if x != j))
                term = mp_mul(a, sub)
                if pos % 2 == 1:
                    term = mp_neg(term)
                acc = mp_add(acc, term)
        memo[key] = acc
        return acc

    result = pf(tuple(range(n)))
    _pfaffian_self_check(entries, result, seed)
    return PfaffianForm(nvars, tuple(mp_items_grlex(result)))


def _pfaffian_self_check(entries, pf_poly, seed):
    nvars = next((len(next(iter(e))) for row in entries for e in row if e),
                 None)
    if nvars is None:
        return
    rng = random.Random(seed)
    for _ in range(3):
        point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                      for _ in range(nvars))
        spec = Matrix(tuple(tuple(mp_eval(e, point) for e in row)
                            for row in entries))
        pv = mp_eval(pf_poly, point)
        if pv * pv != det(spec):
            raise InternalError("Pfaffian self-check failed: Pf^2 != det")


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
    (dim V)/2 at a certified point of {q = 0}."""
    v_dim, k = cand.v_dim, cand.k
    n = v_dim // 4
    generic = [[_generic_entry(cand, i, j) for j in range(v_dim)]
               for i in range(v_dim)]
    p = pfaffian(generic, seed=seed).as_dict()
    if not p:
        return _fail(NotGenericallySymplectic)
    root = _quadric_root(p, n, k)
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


def _generic_entry(cand, i, j):
    """Entry (i, j) of sum t_a Psi_a, with Fraction coefficients read off
    the flat rows."""
    col, k = i * cand.v_dim + j, cand.k
    return {tuple(int(a == b) for b in range(k)): Fraction(r[col], d)
            for a, (r, d) in enumerate(_integer_rows(cand.flat)) if r[col]}


def _quadric_root(p, n, k):
    """(qmat, c, r) with p = c * q**n for the matrix qmat of rank r of a
    quadric q irreducible over Q with grlex-leading coefficient 1, or
    None."""
    gram = _gram_candidate(p, n, k)
    r = rank(gram)
    if r <= 1:
        return None
    e = gram.entries
    q = {tuple((a == i) + (a == j) for a in range(k)): e[i][j] * (1 + (i != j))
         for i in range(k) for j in range(i, k) if e[i][j]}
    lead = mp_items_grlex(q)[0][1]
    qn = mp_pow(mp_scale(q, 1 / lead), n)
    # the grlex-leading coefficient of qn is 1
    c = p.get(mp_items_grlex(qn)[0][0])
    if c is None or mp_scale(qn, c) != p:
        return None
    if r == 2:
        # q splits over Q iff -m is a square for a nonzero 2x2 minor m
        minors = (e[i][i] * e[j][j] - e[i][j] ** 2
                  for i in range(k) for j in range(i + 1, k))
        if _is_square(-next(m for m in minors if m)) is not None:
            return None
    return gram * (1 / lead), c, r


def _gram_candidate(p, n, k):
    """n p H - (n - 1) g g^T at the first point v != 0 of {0..2n}^k with
    p(v) != 0; p has degree at most 2n in each variable, so one exists."""
    v = next(v for v in product(range(2 * n + 1), repeat=k) if mp_eval(p, v))
    pv = mp_eval(p, v)
    grad = [mp_diff(p, i) for i in range(k)]
    g = [mp_eval(d, v) for d in grad]
    return Matrix(tuple(tuple(n * pv * mp_eval(mp_diff(d, j), v)
                              - (n - 1) * g[i] * g[j] for j in range(k))
                        for i, d in enumerate(grad)))


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
    width, cols = cand.psis[0].cols, cand.flat.transpose()
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
