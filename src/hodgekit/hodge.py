"""K3-type Hodge structures as exact data.

A period is a vector over a number field spanning the (2,0)-line; it is
validated against the two defining conditions q(O, O) = 0 and
q(O, conj O) > 0 at a chosen embedding.  The transcendental lattice is
the span of the rational coefficient vectors of the period in the power
basis, which is the minimal rational subspace whose complexification
contains the period line.

The endomorphism field E is the field of Hodge endomorphisms of T, the
rational matrices keeping the period line and T^{1,1}.  Its eigenvalue
on the period maps E isomorphically onto a subfield of F (Zarhin 1983).
The matrices keeping the line alone form a subfield L of F; E is cut out
of L by the Hodge condition, and is therefore closed under the
polarization adjoint a -> q^-1 a^T q, which acts on eigenvalues as the
conjugation tau of the embedding.  tau fixing E means totally real
(Mumford-Tate SO_E), otherwise E is CM over the fixed subfield E_0
(Mumford-Tate U_E).  The rational (2,2)-classes of T (x) T are the c with
c G_T = phi in E, where G_T is the Gram matrix of q on T.  The phi take
two eliminations, the c one; no matrix is inverted.  Matrices and field
elements stay integer rows throughout, and E is a flat family: one row
per basis matrix (linalg._flatten), combined on integers.
"""

from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import lcm
import random

from .errors import (InternalError, IsotropyFails, PositivityFails,
                     ValidationError, WrongSignature)
from .exactmath import (Matrix, NumberField, certified_sign, kernel, rank,
                        rref)
from .exactmath import unipoly as up
from .exactmath.linalg import (_combine, _flatten, _integer_rows, _integer_vec,
                               _join, _unflatten, coords_in, row_space,
                               solve_blocks, submatrix)
from .exactmath.numberfield import (conjugate_vector, conjugation_matrix,
                                    coordinate_matrix, field_dot, row_elements)
from .qforms import QuadraticSpace, lowered, signature

TOTALLY_REAL = "TotallyReal"
CM = "CM"
SO_E = "SO_E"
U_E = "U_E"


class K3Period:
    """Validated period datum: space (V, q), field F with a chosen
    embedding, and the period vector over F."""

    __slots__ = ("space", "field", "embedding", "omega")

    def __init__(self, space, field, embedding, omega):
        self.space = space
        self.field = field
        self.embedding = embedding
        self.omega = omega

    @property
    def dim(self):
        return self.space.dim


def validate_period(space, field, embedding, omega):
    """Certify the period conditions: signature (2, m-2), which needs
    m >= 2, then the period-line conditions of `check_period_line`."""
    m = space.dim
    if m < 2:
        raise WrongSignature(f"dim V = {m}, but signature (2, m - 2) "
                             f"needs dim V >= 2")
    omega = tuple(omega)
    if len(omega) != m:
        raise ValidationError("period length does not match the space")
    if all(v.is_zero() for v in omega):
        raise ValidationError("period vector must be nonzero")
    sig = signature(space)
    if sig != (2, m - 2):
        raise WrongSignature(f"signature {sig} is not (2, {m - 2})")
    check_period_line(space, embedding, omega)
    return K3Period(space, field, embedding, omega)


def check_period_line(space, embedding, vec):
    """q(l, l) = 0 exactly, else IsotropyFails with witness q(l, l); then
    q(l, conj l) > 0 certified, else PositivityFails with the sign.  Both
    pair with w = G l, formed once: q(l, l) = l . w and, as the Gram
    matrix G is symmetric, q(l, conj l) = conj(l) . w."""
    w = space.gram.vec(vec)
    iso = field_dot(vec, w)
    if not iso.is_zero():
        raise IsotropyFails(
            f"q(omega, omega) is nonzero: {list(iso.coords)}", witness=iso)
    conj = conjugate_vector(vec, embedding)
    s = certified_sign(field_dot(conj, w), embedding)
    if s <= 0:
        raise PositivityFails(f"q(omega, conj omega) has sign {s}, not positive",
                              witness=s)


class K3Hodge:
    """Period plus derived transcendental lattice T, its orthogonal
    complement (the algebraic part), the Gram matrix G_T of q on T and
    the coordinates omega_T of the period over the basis of T.  It has
    no __slots__: `endomorphisms` is cached in the instance dict."""

    def __init__(self, period, trans, alg, gram, omega_t):
        self.period = period
        self.trans = trans      # rows: canonical basis of T
        self.alg = alg          # rows: canonical basis of T-perp
        self.gram = gram        # G_T in the basis `trans`
        self.omega_t = omega_t  # omega = sum omega_t[k] * trans[k], over F

    @property
    def space(self):
        return self.period.space

    @property
    def dim_t(self):
        return self.trans.rows

    @cached_property
    def endomorphisms(self):
        """E as `_character_basis` returns it, computed once per object."""
        return _character_basis(self)


def transcendental_lattice(period):
    """Span of the rational coefficient vectors of the period in the
    power basis of its field; minimal by the Galois-span argument, and
    re-verified to contain the period after complexification."""
    m = period.dim
    t = row_space(coordinate_matrix(period.omega))
    bg, gram_t = lowered(period.space.gram, t)
    # T_R holds the positive plane of Re omega and Im omega, whose
    # orthogonal complement is negative definite after validate_period
    tsig = signature(QuadraticSpace(gram_t))
    if tsig != (2, t.rows - 2):
        raise InternalError(
            f"q restricted to the transcendental lattice has signature {tsig}")
    omega_t = coords_in(t, period.omega)
    if omega_t is None:
        raise InternalError("period does not lie in the computed lattice")
    tperp = kernel(bg)
    if t.rows + tperp.rows != m:
        raise InternalError("T and its complement do not decompose V")
    return K3Hodge(period, t, tperp, gram_t, omega_t)


class MTDescriptor:
    """Mumford-Tate shape: the group family and the rank of the lattice
    over the endomorphism field."""

    __slots__ = ("family", "rank")

    def __init__(self, family, rank):
        self.family = family
        self.rank = rank


class EndFieldResult:
    """The Hodge endomorphism field E of the transcendental lattice with
    its classification data."""

    __slots__ = ("basis", "e", "primitive_matrix", "primitive_minpoly",
                 "field", "classification", "fixed_subalgebra", "mt")

    def __init__(self, basis, e, primitive_matrix, primitive_minpoly, field,
                 classification, fixed_subalgebra, mt):
        self.basis = basis    # rational matrices on T spanning E
        self.e = e
        self.primitive_matrix = primitive_matrix
        self.primitive_minpoly = primitive_minpoly
        self.field = field    # NumberField defined by the minimal polynomial
        self.classification = classification
        # basis of E_0 (empty in the totally real case)
        self.fixed_subalgebra = fixed_subalgebra
        self.mt = mt


def endomorphism_field(h):
    """Classify E, read from `h.endomorphisms`, by the conjugation tau.
    lambda -> phi_lambda (phi omega = lambda omega) is a ring isomorphism
    onto a subfield of F, as a rational matrix killing omega kills the
    minimal space T; so E is commutative, and it is a field iff the span
    of the eigenvalues is Q(p) for a primitive element p (see
    `_primitive_element`).  By the Hodge condition (see
    `_character_basis`) phi_lambda* = G_T^-1 phi^T G_T = phi_{tau lambda}
    is in E, so * is an involution as tau is; it is re-checked on the
    primitive element p as p^T G_T omega = tau(p) G_T omega.  E is
    totally real iff tau fixes each basis eigenvalue, E_0 is cut out by
    the lambda_i - tau(lambda_i), and the minimal polynomial of p has e
    (totally real) or 0 (CM) real roots."""
    t = h.dim_t
    flat, lams, conj = h.endomorphisms
    basis = _unflatten(_integer_rows(flat), t)
    e = len(basis)
    coeffs, minpoly = _primitive_element(lams)
    # the basis matrices of E, flattened, are the columns of cols
    cols = flat.transpose()
    (prim,) = _unflatten((_combine(cols, (coeffs, 1)),), t)
    tau_p = h.period.field.element_over(
        *_combine(coordinate_matrix(conj), (coeffs, 1)))
    lowered = h.gram.vec(h.omega_t)            # G_T omega
    if prim.transpose().vec(lowered) != tuple(tau_p * v for v in lowered):
        raise InternalError("endomorphism field is not closed under adjoint")

    totally_real = conj == lams
    fixed = ()
    if not totally_real:
        fix_ker = kernel(coordinate_matrix([a - b for a, b in zip(lams, conj)]))
        fixed = _unflatten((_combine(cols, lam)
                            for lam in _integer_rows(fix_ker)), t)
        if 2 * len(fixed) != e:
            raise InternalError("fixed subalgebra does not have dimension e/2")

    # the first dependence among the powers of p in F: minimal, so
    # irreducible, and nf_create's certificate would only repeat that
    efield = NumberField(minpoly)
    if up.count_real_roots(minpoly) != (e if totally_real else 0):
        raise InternalError("real roots of the minimal polynomial contradict "
                            "the classification")
    if t % e != 0:
        raise InternalError("field degree does not divide the lattice dimension")
    mt = MTDescriptor(SO_E if totally_real else U_E, t // e)
    return EndFieldResult(basis, e, prim, minpoly, efield,
                          TOTALLY_REAL if totally_real else CM, fixed, mt)


def _character_basis(h):
    """Canonical basis of E: the flattened rational matrices phi on T
    that are Hodge endomorphisms, as RREF rows, with the eigenvalue lambda
    in F of each row (phi omega = lambda omega) and its conjugate
    tau(lambda).  Let Omega be the e_F x t rational matrix of power-basis
    coefficients of omega_T (rank t) and S_i = M_{x^i} Omega; phi keeps
    the line iff Omega phi^T = sum lambda_i S_i.  The RREF of
    [S_0 | ... | S_(e_F-1)], S_0 = Omega, is P times it with P Omega =
    [I; 0]: its block i is [X_i; R_i], and the lower rows of P span
    ker(Omega^T).  So lambda lies in the line stabilizer L, a subfield of
    F, iff sum lambda_i R_i = 0, and then phi^T = sum lambda_i X_i.

    Hodge condition: phi in L also keeps T^{1,1} = {omega, conj omega}^perp
    iff phi* omega lies in span(omega, conj omega).  Pairing with omega
    and conj omega (q(omega, omega) = 0, q(omega, conj omega) != 0) shows
    the only possible such vector is tau(lambda) omega, so the condition
    is delta = phi^T G_T omega - tau(lambda) G_T omega = 0 in F^t.  Then
    phi* keeps the line with eigenvalue tau(lambda) and (phi*)* = phi, so
    phi* is in E: E is closed under * by construction.  All blocks are
    Q-linear in lambda, so one more RREF reduces the rows
    [R | delta | phi | lambda | tau(lambda)] of the powers x^i together;
    the rows past the R and delta pivots span E, their pivots all lie in
    the injective phi block, which is thus the RREF of the phi alone.
    When every delta of L is 0 (a form compatible with L), E = L."""
    field = h.period.field
    t, e_f = h.dim_t, field.degree
    gen = field.gen()
    multiples = [h.omega_t]                # x^i omega_T
    for _ in range(1, e_f):
        multiples.append(tuple(v * gen for v in multiples[-1]))
    shifted = [coordinate_matrix(c) for c in multiples]   # S_i
    red, pivots = rref(Matrix.from_int_rows(
        tuple(map(_join, zip(*map(_integer_rows, shifted)))), t * e_f))
    if pivots[:t] != tuple(range(t)):
        raise InternalError("period coordinates do not have rank dim T")
    # the R and delta blocks, the phi block
    width, tt = (e_f - t) * t + t * e_f, t * t
    red, pivots = rref(_defect_rows(h, multiples, red))
    hodge = slice(sum(p < width for p in pivots), len(pivots))
    return (submatrix(red, hodge, slice(width, width + tt)),
            row_elements(field, submatrix(red, hodge,
                                          slice(width + tt, width + tt + e_f))),
            row_elements(field, submatrix(red, hodge,
                                          slice(width + tt + e_f, red.cols))))


def _defect_rows(h, multiples, red):
    """The rows [R_i | delta_i | phi_i | x^i | tau(x^i)] of
    `_character_basis` on integers, one per power x^i, from the RREF red
    of [S_0 | S_1 | ...], whose block i is [X_i; R_i] with X_i = phi_i^T;
    delta_i = X_i G_T omega - tau(x^i) G_T omega is flattened to its
    t e_F power-basis coordinates.  tau(x^i), column i of the conjugation
    matrix, gives tau(x^i) G_T omega as the rational combination of the
    vectors G_T x^k omega, formed once from `multiples` (x^k omega), so
    no field product is taken."""
    field, emb = h.period.field, h.period.embedding
    t, e_f = h.dim_t, field.degree
    lowered = [h.gram.vec(c) for c in multiples]     # G_T x^k omega
    # column k: G_T x^k omega, flattened
    combos = Matrix.from_int_rows(
        [_join([(v.num, v.den) for v in c]) for c in lowered],
        t * e_f).transpose()
    taus = conjugation_matrix(field, emb.index).transpose()
    rows = []
    for i, (tau, tau_den) in enumerate(_integer_rows(taus)):
        block = slice(t * i, t * (i + 1))
        x = submatrix(red, slice(t), block)
        # X_i G_T omega, and tau(x^i) G_T omega over db
        a, da = _join([(v.num, v.den) for v in x.vec(lowered[0])])
        b, db = _integer_vec(combos, tau)
        db *= tau_den
        den = lcm(da, db)
        delta = [u * (den // da) - v * (den // db) for u, v in zip(a, b)]
        unit = [int(i == j) for j in range(e_f)]
        rows.append(_join([_flatten(submatrix(red, slice(t, e_f), block)),
                           (delta, den), _flatten(x.transpose()),
                           (unit, 1), (tau, tau_den)]))
    return Matrix.from_int_rows(rows, len(rows[0][0]))


def _primitive_element(lams):
    """Coefficients over the basis of a generator p of span(lams), with
    its minimal polynomial: each basis element in turn, then small integer
    combinations in a fixed pseudorandom order, until p has degree
    e = len(lams), that is, until the dependences among 1, p, ..., p^e
    form one line (their dimension is e + 1 - deg p when deg p <= e).
    The span is then the field Q(p) iff [lams; 1, ..., p^(e-1)] has rank e."""
    e = len(lams)
    field = lams[0].parent
    cols = coordinate_matrix(lams)
    units = (tuple(int(i == j) for j in range(e)) for i in range(e))
    rng = random.Random(0)
    draws = ([rng.randint(-3, 3) for _ in lams] for _ in range(1000))
    for coeffs in chain(units, draws):
        p = field.element_over(*_combine(cols, (coeffs, 1)))
        powers = [field.one()]
        for _ in range(e):
            powers.append(powers[-1] * p)
        ker = kernel(coordinate_matrix(powers))
        if ker.rows == 1:
            if rank(coordinate_matrix(tuple(lams) + tuple(powers[:-1]))) != e:
                raise InternalError(
                    "endomorphism algebra is not closed under product")
            (dep, _), = _integer_rows(ker)
            return tuple(coeffs), tuple(Fraction(c, dep[-1]) for c in dep)
    raise InternalError("no primitive element found")


def hodge_classes_tensor_square(h):
    """Canonical basis of the rational (2,2)-classes in T (x) T: the
    tensors c = phi G_T^-1 for phi in E, so their number is dim E.

    Proof: in the frame (omega, conj omega, T^{1,1}) the Gram matrix is
    D = [[0, a, 0], [a, 0, 0], [0, 0, H]], block anti-diagonal on the
    first two vectors and block diagonal with the rest.  The frame
    components of c are those of A = c G_T times D^-1, which swaps the
    omega and conj omega columns and mixes the (1,1) columns invertibly.
    So the (4,0), (3,1), (1,3) and (0,4) components vanish exactly when
    A keeps the lines of omega and conj omega and so does its adjoint,
    that is, A is a Hodge endomorphism.  E, read from `h.endomorphisms`,
    is exactly the field of those, so c is (2,2) iff c G_T is in E."""
    t = h.dim_t
    # c G_T = phi iff G_T c^T = phi^T, as G_T is symmetric.  The c^T =
    # phi* G_T^-1 span the same space as the c, as E is closed under *
    phis = _unflatten(_integer_rows(h.endomorphisms[0]), t)
    cts = solve_blocks(h.gram, tuple(phi.transpose() for phi in phis))
    rows = tuple(_flatten(ct) for ct in cts)
    classes = row_space(Matrix.from_int_rows(rows, t * t))
    return _unflatten(_integer_rows(classes), t)
