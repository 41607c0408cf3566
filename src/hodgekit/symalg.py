"""Graded symmetric algebras over Q or over an endomorphism field, the
harmonic quotient by the ideal of the dual bivector, the top power map,
and the transcendental-Hodge-algebra builder.

Sym(V) is realized as the polynomial ring on the basis coordinates with
graded-lexicographic monomial order.  The harmonic complement of the
ideal (b) is the kernel of the contraction operator

    L = sum_ij q_ij d_i d_j,

which kills the powers of isotropic linear forms and provides the
canonical splitting Sym^i = ker L  (+)  b * Sym^(i-2): the quotient
projection subtracts b * (L as composed with multiplication by b)^-1 L x,
so projecting is exact linear algebra at each degree.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .errors import (DegreeTooHigh, HarmonicDimTooSmall, InternalError,
                     ValidationError)
from .exactmath import Matrix, inverse
from .exactmath import unipoly as up
from .exactmath.mpoly import (mp_from_vector, mp_items_grlex, mp_mul, mp_pow,
                              mp_sub)
from .qforms import QuadraticSpace, bilinear, dual_bivector

FULL = "full"
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

    def vector(self, zero=Fraction(0)):
        """Coefficient vector on the grlex monomial basis of its degree."""
        d = self.as_dict()
        return tuple(d.get(mon, zero) for mon in monomials(self.nvars, self.degree))

    @classmethod
    def from_vector(cls, nvars, degree, vec):
        d = {mon: c for mon, c in zip(monomials(nvars, degree), vec) if c != 0}
        return cls.from_dict(nvars, degree, d)


class SymAlgebra:
    """Truncated symmetric algebra of a quadratic space, either full or
    modded out by the ideal of the dual bivector (harmonic mode)."""

    __slots__ = ("space", "mode", "top")

    def __init__(self, space, mode, top):
        if mode not in (FULL, HARMONIC):
            raise ValidationError(f"unknown mode {mode!r}")
        if top < 1:
            raise ValidationError("top degree must be at least 1")
        if mode == HARMONIC and space.dim < 3:
            raise HarmonicDimTooSmall(
                "harmonic quotient requires a space of dimension >= 3")
        self.space = space
        self.mode = mode
        self.top = top

    @property
    def dim(self):
        return self.space.dim

    def zero_scalar(self):
        return self.space.gram.entries[0][0] * 0


@lru_cache(maxsize=None)
def contraction_matrix(space, i):
    """Matrix of L = sum q_ab d_a d_b from Sym^i to Sym^(i-2) on the
    grlex monomial bases."""
    m = space.dim
    zero = space.gram.entries[0][0] * 0
    src = monomials(m, i)
    dst = monomials(m, i - 2)
    dst_index = {mon: k for k, mon in enumerate(dst)}
    cols = []
    g = space.gram.entries
    for mon in src:
        col = [zero] * len(dst)
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
    zero = space.gram.entries[0][0] * 0
    b = dual_bivector(space)
    src = monomials(m, i - 2)
    dst = monomials(m, i)
    dst_index = {mon: k for k, mon in enumerate(dst)}
    cols = []
    for mon in src:
        col = [zero] * len(dst)
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
    if alg.mode != HARMONIC:
        raise ValidationError("harmonic_project requires a Harmonic algebra")
    if x.degree > alg.top:
        raise DegreeTooHigh(f"degree {x.degree} exceeds top degree {alg.top}")
    if x.degree < 2 or x.is_zero():
        return x
    space = alg.space
    zero = alg.zero_scalar()
    lam = contraction_matrix(space, x.degree)
    lx = lam.vec(x.vector(zero))
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
    p = SymElement.from_dict(alg.dim, alg.top, mp_pow(lx, alg.top))
    if alg.mode == HARMONIC:
        p = harmonic_project(alg, p)
    if p.is_zero():
        raise InternalError(
            "nonzero vector produced a vanishing top power; "
            "nondegeneracy of the power map is violated")
    return p


# Transcendental Hodge algebra over the endomorphism field.

class EStructure:
    """Presentation of the transcendental lattice as a vector space over
    its endomorphism field E = Q(p): for each of the n_E generating
    vectors x (T-coordinates over Q), its orbit x, p x, ..., p**(e-1) x,
    a Q-basis of E x."""

    __slots__ = ("orbits",)

    def __init__(self, orbits):
        self.orbits = orbits

    @property
    def basis(self):
        return tuple(orbit[0] for orbit in self.orbits)

    @property
    def rank(self):
        return len(self.orbits)


def e_structure(h, ef):
    """Deterministic E-basis of the transcendental lattice: greedy orbit
    closure of standard basis vectors under the primitive element."""
    from .exactmath.linalg import coords_in, row_space

    t = h.trans.rows
    orbits, span_rows = [], []
    span = None
    for k in range(t):
        cand = tuple(Fraction(1) if j == k else Fraction(0) for j in range(t))
        if span is not None and coords_in(span, cand) is not None:
            continue
        orbit = [cand]
        for _ in range(ef.e - 1):
            orbit.append(ef.primitive_matrix.vec(orbit[-1]))
        orbits.append(tuple(orbit))
        span_rows += orbit
        span = row_space(Matrix(span_rows))
        if span.rows == t:
            break
    if span is None or span.rows != t:
        raise InternalError("primitive orbits failed to span the lattice")
    return EStructure(tuple(orbits))


def trace_transfer_form(h, ef, es):
    """The E-valued symmetric pairing q_E on the E-structure whose trace
    form recovers q: Tr(a * q_E(x, y)) = q(a x, y) for all a in E.
    Exists (symmetric) exactly in the totally real case."""
    from .exactmath.linalg import solve_blocks

    field = ef.field
    e = field.degree
    # trace Gram matrix Tr(alpha^(k+l)): the power sums of the roots of
    # the defining polynomial of E
    sums = up.power_sums(field.defining_poly, 2 * e - 2)
    tr = [[sums[k + l] for l in range(e)] for k in range(e)]
    n = es.rank
    # column (i, j) of the right-hand side is q(alpha^k x_i, x_j), k < e
    rhs = Matrix(tuple(tuple(bilinear(h.gram, orbit[k], xj)
                             for orbit in es.orbits for xj in es.basis)
                       for k in range(e)))
    sol = solve_blocks(Matrix(tr), (rhs,))
    if sol is None:
        raise InternalError("trace form is degenerate")
    cols = sol[0].transpose().entries
    g = Matrix(tuple(tuple(field.element(c) for c in cols[i * n:(i + 1) * n])
                     for i in range(n)))
    if not g.is_symmetric():
        raise InternalError("trace-transfer pairing is not symmetric; "
                            "the endomorphism field is not acting totally real")
    return QuadraticSpace(g)


FULL_E = "full_e"
HARMONIC_E = "harmonic_e"


class THAResult:
    """Graded shape of the transcendental Hodge algebra up to degree n."""

    __slots__ = ("mode", "n", "e", "graded_dims_e", "graded_dims_q", "algebra",
                 "estructure")

    def __init__(self, mode, n, e, graded_dims_e, graded_dims_q, algebra,
                 estructure):
        self.mode = mode
        self.n = n
        self.e = e
        self.graded_dims_e = graded_dims_e
        self.graded_dims_q = graded_dims_q
        self.algebra = algebra
        self.estructure = estructure


def build_tha(h, ef, n):
    """Transcendental Hodge algebra of a hyperkaehler manifold of
    complex dimension 2n with second transcendental cohomology h: the
    full E-symmetric algebra in the CM case and the harmonic quotient in
    the totally real case, truncated at degree n."""
    if n < 1:
        raise ValidationError("n must be at least 1")
    es = e_structure(h, ef)
    n_e = es.rank
    field = ef.field
    if ef.classification == "CM":
        space = QuadraticSpace(Matrix.identity(n_e, field.one()))
        alg = SymAlgebra(space, FULL, n)
        dims_e = tuple(sym_dim(n_e, i) for i in range(n + 1))
        mode = FULL_E
    else:
        if n_e < 3:
            raise HarmonicDimTooSmall(
                f"harmonic quotient needs rank >= 3 over E, got {n_e}")
        space = trace_transfer_form(h, ef, es)
        alg = SymAlgebra(space, HARMONIC, n)
        dims_e = tuple(harm_dim(n_e, i) for i in range(n + 1))
        mode = HARMONIC_E
    dims_q = tuple(ef.e * d for d in dims_e)
    return THAResult(mode, n, ef.e, dims_e, dims_q, alg, es)
