"""Graded symmetric algebras of rational quadratic spaces, the harmonic
quotient by the ideal of the dual bivector, the top power map, and the
graded shape of the transcendental Hodge algebra.

Sym(V) is realized as the polynomial ring on the basis coordinates with
graded-lexicographic monomial order.  The harmonic complement of the
ideal (b) is the kernel of the contraction operator

    L = sum_ij q_ij d_i d_j,

which kills the powers of isotropic linear forms and provides the
canonical splitting Sym^i = ker L  (+)  b * Sym^(i-2): the quotient
projection subtracts b * (L as composed with multiplication by b)^-1 L x,
so projecting is exact linear algebra at each degree.

The transcendental Hodge algebra is Sym_E(T) in the CM case and its
harmonic quotient in the totally real case, so its graded dimensions
follow from e = deg E and the rank t/e of T over E alone (build_tha).
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import (DegreeTooHigh, HarmonicDimTooSmall, InternalError,
                     ValidationError)
from .exactmath import Matrix, inverse
from .exactmath.mpoly import (mp_from_vector, mp_items_grlex, mp_mul, mp_pow,
                              mp_sub)
from .qforms import dual_bivector, lowered

HARMONIC = "harmonic"


def sym_dim(m, i):
    """dim Sym^i of an m-dimensional space."""
    if m < 1 or i < 0:
        raise ValidationError("sym_dim requires m >= 1 and i >= 0")
    return comb(m + i - 1, i)


def harm_dim(m, i):
    """Dimension of the degree-i piece of the harmonic quotient."""
    if m < 3:
        raise HarmonicDimTooSmall("harmonic dimensions require dim >= 3")
    if i < 0:
        raise ValidationError("degree must be nonnegative")
    low = sym_dim(m, i - 2) if i >= 2 else 0
    return sym_dim(m, i) - low


def sym_decompose_dims(m, i):
    """Dimensions of the isotypic pieces of Sym^i: the j-th entry is the
    harmonic dimension in degree i-2j; they sum to sym_dim(m, i)."""
    return [harm_dim(m, i - 2 * j) for j in range(i // 2 + 1)]


@lru_cache(maxsize=None)
def monomials(m, d):
    """Exponent tuples of total degree d in m variables, graded-lex."""
    if m == 1:
        return ((d,),)
    out = []
    for first in range(d, -1, -1):
        for rest in monomials(m - 1, d - first):
            out.append((first,) + rest)
    return tuple(out)


class SymElement:
    """Homogeneous element of Sym(V) as a polynomial coefficient map;
    elements are equal when their coefficient maps are."""

    __slots__ = ("nvars", "degree", "coeffs")

    def __init__(self, nvars, degree, coeffs):
        self.nvars = nvars
        self.degree = degree
        self.coeffs = coeffs  # ((exponents, coefficient), ...) in grlex order

    def __eq__(self, other):
        if other.__class__ is not SymElement:
            return NotImplemented
        return (self.nvars, self.degree, self.coeffs) == (
            other.nvars, other.degree, other.coeffs)

    def __hash__(self):
        return hash((self.nvars, self.degree, self.coeffs))

    @classmethod
    def from_dict(cls, nvars, degree, d):
        items = tuple((k, c) for k, c in mp_items_grlex(d) if c != 0)
        for k, _ in items:
            if sum(k) != degree or len(k) != nvars:
                raise ValidationError("non-homogeneous coefficient map")
        return cls(nvars, degree, items)

    def as_dict(self):
        return dict(self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def vector(self):
        """Coefficient vector on the grlex monomial basis of its degree."""
        d = self.as_dict()
        return tuple(d.get(mon, Fraction(0))
                     for mon in monomials(self.nvars, self.degree))

    @classmethod
    def from_vector(cls, nvars, degree, vec):
        d = {mon: c for mon, c in zip(monomials(nvars, degree), vec) if c != 0}
        return cls.from_dict(nvars, degree, d)


class SymAlgebra:
    """Symmetric algebra of a rational quadratic space modulo the ideal
    of the dual bivector (the harmonic mode, the only one), truncated
    at degree top."""

    __slots__ = ("space", "mode", "top")

    def __init__(self, space, mode, top):
        if mode != HARMONIC:
            raise ValidationError(f"unknown mode {mode!r}")
        if top < 1:
            raise ValidationError("top degree must be at least 1")
        if space.dim < 3:
            raise HarmonicDimTooSmall(
                "harmonic quotient requires a space of dimension >= 3")
        self.space = space
        self.mode = mode
        self.top = top

    @property
    def dim(self):
        return self.space.dim


@lru_cache(maxsize=None)
def contraction_matrix(space, i):
    """Matrix of L = sum q_ab d_a d_b from Sym^i to Sym^(i-2) on the
    grlex monomial bases."""
    m = space.dim
    src = monomials(m, i)
    dst = monomials(m, i - 2)
    dst_index = {mon: k for k, mon in enumerate(dst)}
    cols = []
    g = space.gram.entries
    for mon in src:
        col = [Fraction(0)] * len(dst)
        for a in range(m):
            for b in range(m):
                if g[a][b] == 0:
                    continue
                if a == b:
                    if mon[a] < 2:
                        continue
                    coef = mon[a] * (mon[a] - 1)
                    tgt = list(mon)
                    tgt[a] -= 2
                else:
                    if mon[a] < 1 or mon[b] < 1:
                        continue
                    coef = mon[a] * mon[b]
                    tgt = list(mon)
                    tgt[a] -= 1
                    tgt[b] -= 1
                k = dst_index[tuple(tgt)]
                col[k] = col[k] + g[a][b] * coef
        cols.append(col)
    return Matrix(tuple(zip(*cols)))


@lru_cache(maxsize=None)
def _bivector_mult_matrix(space, i):
    """Matrix of multiplication by the dual bivector from Sym^(i-2) to
    Sym^i on the grlex bases."""
    m = space.dim
    b = dual_bivector(space)
    src = monomials(m, i - 2)
    dst = monomials(m, i)
    dst_index = {mon: k for k, mon in enumerate(dst)}
    cols = []
    for mon in src:
        col = [Fraction(0)] * len(dst)
        for bexp, c in b.items():
            tgt = tuple(x + y for x, y in zip(mon, bexp))
            k = dst_index[tgt]
            col[k] = col[k] + c
        cols.append(col)
    return Matrix(tuple(zip(*cols)))


@lru_cache(maxsize=None)
def _splitting_inverse(space, i):
    """Inverse of L compose (multiply by b) on Sym^(i-2); the key fact
    making the projection canonical is that this composition is
    invertible whenever q is nondegenerate."""
    lam = contraction_matrix(space, i)
    bmul = _bivector_mult_matrix(space, i)
    prod = lam * bmul
    try:
        return inverse(prod)
    except ValueError as exc:
        raise InternalError("contraction splitting is singular") from exc


def harmonic_project(alg, x):
    """The harmonic representative of x in the quotient by (b):
    idempotent, kernel exactly b * Sym^(degree-2)."""
    if x.degree > alg.top:
        raise DegreeTooHigh(f"degree {x.degree} exceeds top degree {alg.top}")
    if x.degree < 2 or x.is_zero():
        return x
    space = alg.space
    lam = contraction_matrix(space, x.degree)
    lx = lam.vec(x.vector())
    if all(c == 0 for c in lx):
        return x
    y = _splitting_inverse(space, x.degree).vec(lx)
    b = dual_bivector(space)
    ylow = SymElement.from_vector(space.dim, x.degree - 2, y)
    correction = mp_mul(b, ylow.as_dict())
    return SymElement.from_dict(space.dim, x.degree,
                                mp_sub(x.as_dict(), correction))


def power_top(alg, x):
    """x**top in the algebra.  Nonzero for every nonzero x; a zero result
    for nonzero x violates the nondegeneracy theorem and fails loudly."""
    if all(c == 0 for c in x):
        return SymElement(alg.dim, alg.top, ())
    lx = mp_from_vector(tuple(x))
    p = harmonic_project(
        alg, SymElement.from_dict(alg.dim, alg.top, mp_pow(lx, alg.top)))
    if p.is_zero():
        raise InternalError(
            "nonzero vector produced a vanishing top power; "
            "nondegeneracy of the power map is violated")
    return p


# Transcendental Hodge algebra over the endomorphism field.

FULL_E = "full_e"
HARMONIC_E = "harmonic_e"


class THAResult:
    """Graded shape of the transcendental Hodge algebra up to degree n."""

    __slots__ = ("mode", "n", "e", "rank_over_e", "graded_dims_e",
                 "graded_dims_q")

    def __init__(self, mode, n, e, rank_over_e, graded_dims_e, graded_dims_q):
        self.mode = mode
        self.n = n
        self.e = e
        self.rank_over_e = rank_over_e
        self.graded_dims_e = graded_dims_e
        self.graded_dims_q = graded_dims_q


def build_tha(h, ef, n):
    """Graded dimensions of the transcendental Hodge algebra of a
    hyperkaehler manifold of complex dimension 2n with second
    transcendental cohomology h, truncated at degree n: the full
    E-symmetric algebra Sym_E(T) in the CM case and its harmonic quotient
    in the totally real case.  T is an E-vector space of rank t/e
    (ef.mt.rank), so the dimensions over E are those of the symmetric
    algebra or of its harmonic quotient on that many variables."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    n_e = ef.mt.rank
    if ef.classification == "CM":
        dims_e = tuple(sym_dim(n_e, i) for i in range(n + 1))
        mode = FULL_E
    else:
        # No validated period reaches this: with E totally real the rank
        # of T over E is at least 3 (Zarhin 1983).  At rank 2 the
        # rotation J of the positive plane, with J^2 = -det q_E, would be
        # a Hodge endomorphism outside E.
        if n_e < 3:
            raise HarmonicDimTooSmall(
                f"harmonic quotient needs rank >= 3 over E, got {n_e}")
        # the E-valued form q_E with Tr(a q_E(x, y)) = q(a x, y) is
        # symmetric exactly when the primitive element P is
        # q-self-adjoint, P^T G_T = G_T P: row i of lowered's P^T G_T is
        # G_T times column i of P
        pt_g = lowered(h.gram, ef.primitive_matrix.transpose())[0]
        if not pt_g.is_symmetric():
            raise InternalError("trace-transfer pairing is not symmetric; "
                                "the endomorphism field is not acting totally real")
        dims_e = tuple(harm_dim(n_e, i) for i in range(n + 1))
        mode = HARMONIC_E
    return THAResult(mode, n, ef.e, n_e, dims_e,
                     tuple(ef.e * d for d in dims_e))
