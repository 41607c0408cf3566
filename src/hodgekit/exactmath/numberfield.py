"""Number fields Q[x]/(f) with exact arithmetic and certified complex
embeddings.

A NumberField carries a monic irreducible defining polynomial; an
element keeps the integer numerators of its coordinates in the power
basis 1, x, ..., x**(e-1) over one positive denominator, in lowest
terms, and builds the Fraction coordinates only when they are read.
Sums, products, scaling, comparison and hashing work on those integers.
Two elements are multiplied by reducing the convolution of their
numerators by the powers x**e, ..., x**(2e-2) scaled to one common
denominator; field_dot sums several convolutions over one denominator
and reduces once.  A matrix over the field, an element as its 1 x 1
case, is inverted by one integer elimination on its regular
representation, whose blocks are matrices of multiplication.
coordinate_matrix and row_elements move between elements and rational
matrices on the same integers.
nf_create certifies irreducibility without factoring: monic factors
over Q correspond to sets of roots closed under conjugation, and the
sets of at most e/2 roots are tried on the certified root disks of
rootiso, dropped by integrality of their coefficient enclosures, and
decided by exact trial division (_root_subset_factors).  Each of the e
embeddings into C is certified by the inclusion disk of the generator's
image, real or not.  An element is evaluated on that disk refined by
Newton steps, in integers: the exact value at the disk's centre and a
majorant bound on the error (ComplexEmbedding.eval_box).  Sign questions
are settled on such disks at doubling precision, once zero and realness
have been decided exactly.

Conjugation is handled through the conjugation automorphism of the
chosen embedding: the field element tau with sigma(tau(v)) equal to the
complex conjugate of sigma(v).  tau is first guessed numerically: when
conjugation commutes with every embedding (CM and totally real fields)
tau maps each root r of the defining polynomial f to conj(r).  With D
the common denominator of f, D gen is a root of a monic integer
polynomial h, and h'(D gen) tau(D gen) has integer coordinates, the
coefficients of the interpolant of s -> h'(s) conj(s) over the roots s
of h.  They are rounded to integers and divided by D h'(D gen) in the
field, and the guess is then certified exactly: f(tau(gen)) = 0 in the
field, and sigma(tau(gen)) lies in the isolating disk of the conjugate
root.  The guess interpolates in the same fixed-point arithmetic and
from the same root approximations (rootiso.approx_roots) as the
embeddings.  When no guess of a short precision ramp passes both
checks, tau(gen) is guessed from the chosen embedding alone, as the
integer relation between conj(sigma(gen)) and the powers of sigma(gen)
found by LLL reduction, under the same checks.  When that fails too,
the roots of f in the field come from sympy's factorization of f over
the field (Trager's norm method; roots_in_field), up to degree 8
(TooLarge past it).  Only that
fallback can report that the image field is not stable under
conjugation; period-style inputs are then rejected
(ConjugationNotInternal).  Elements are conjugated by the rational
matrix of tau on the power basis (conjugation_matrix), built once per
embedding.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from math import gcd, lcm
from operator import mul

from ..errors import (DegreeTooLarge, InternalError, NotMonic, NotRealValued,
                      Reducible, TooLarge)
from . import unipoly as up
from .linalg import (Matrix, _integer_row, _integer_rows, _join, _lowest,
                     solve_blocks)
from .rootiso import (ROOT_DIGITS, _ceil_sqrt, _horner, _integer_poly,
                      approx_conjugation, digits_bits, isolate_nonreal_roots,
                      isolate_real_roots, root_disks)

MAX_DEGREE = 16
# the largest degree e**2 of the norm that roots_in_field factors: on
# x^e - 2(11x - 1)^2 it takes about 5 s at e = 10, 46 s at e = 12
MAX_TRAGER_NORM_DEGREE = 64
# decimal working precisions of the numeric conjugation guess, sharing
# the root approximations of the embeddings
_GUESS_DIGITS = ROOT_DIGITS[:3]


class NumberField:
    """Q[x]/(defining_poly), defining_poly monic irreducible.  Fields are
    equal when their defining polynomials are; the hash of the polynomial
    is taken once, as the field caches look fields up on every product."""

    __slots__ = ("defining_poly", "_hash")

    def __init__(self, defining_poly):
        self.defining_poly = defining_poly
        self._hash = hash(defining_poly)

    def __eq__(self, other):
        if other.__class__ is not NumberField:
            return NotImplemented
        return self.defining_poly == other.defining_poly

    def __hash__(self):
        return self._hash

    @property
    def degree(self):
        return len(self.defining_poly) - 1

    def element(self, coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise ValueError("coordinate vector has wrong length")
        return FieldElement(self, coords)

    def element_over(self, num, den):
        """The element with the integer power-basis numerators num over the
        nonzero integer den, brought to lowest terms."""
        num, den = _lowest(num, den)
        return _element(self, tuple(num), den)

    def from_rational(self, c):
        c = Fraction(c)
        return _element(self, (c.numerator,) + (0,) * (self.degree - 1),
                        c.denominator)

    def zero(self):
        return self.from_rational(0)

    def one(self):
        return self.from_rational(1)

    def gen(self):
        if self.degree == 1:
            # x - c: the generator is the rational c itself
            return self.from_rational(-self.defining_poly[0])
        return _element(self, (0, 1) + (0,) * (self.degree - 2), 1)

    def __repr__(self):
        return f"NumberField({list(self.defining_poly)})"


def nf_create(coeffs):
    """Build the number field defined by a monic irreducible polynomial
    (coefficients constant-first)."""
    f = up.normalize(tuple(Fraction(c) for c in coeffs))
    e = up.degree(f)
    if e < 1 or e > MAX_DEGREE:
        raise DegreeTooLarge(f"defining polynomial degree {e} outside 1..{MAX_DEGREE}")
    if f[-1] != 1:
        raise NotMonic("defining polynomial must be monic")
    witness = _least_factor(f)
    if witness is not None:
        raise Reducible(f"defining polynomial factors; witness degree {up.degree(witness)}",
                        witness=witness)
    return NumberField(f)


def _least_factor(f):
    """None when the monic f is irreducible over Q, else its monic
    irreducible factor of least degree, ties broken by the coefficient
    tuple.  f and its squarefree part h = f / gcd(f, f') have the same
    irreducible factors, and h is irreducible iff no proper factor of
    degree <= deg(h) / 2 is found among the root subsets of h.  gcd(f, f')
    is read off the last member of f's Sturm chain, the chain that
    nf_embeddings counts real roots on."""
    h = up.monic(up.divmod_poly(f, up.sturm_chain(f)[-1])[0])
    found = _root_subset_factors(h) if up.degree(h) > 1 else ()
    if found:
        return min(found)
    return None if h == f else h


def _root_subset_factors(h):
    """The monic factors of least degree k <= n/2 of the monic squarefree
    h of degree n, or () when there are none.

    With D the common denominator of h, g(x) = D**n h(x/D) is monic over
    Z, and by Gauss's lemma each monic factor of g over Q has integer
    coefficients and is prod_S (x - D alpha) for a set S of roots alpha
    of h that is closed under conjugation.  Such sets are enumerated by
    size, smallest first, on the certified root disks of h refined so
    that every coefficient enclosure is narrower than 1/2.  A set is
    dropped as soon as one enclosure, starting with the trace, contains
    no integer; the integer candidate of a set that survives is decided
    by exact trial division of g."""
    n = up.degree(h)
    kmax = n // 2
    den = lcm(*(c.denominator for c in h))
    g = tuple(c * den**(n - k) for k, c in enumerate(h))
    disks, mirror = root_disks(h)
    # |x| + |y| of any centre refined inside a disk, times D, is at most
    # bound; with every radius of D alpha at most rho, each coefficient
    # error is at most C(k,j) j rho (bound + 1)**(j-1) <= 1/4
    bound = den * max(Fraction(abs(d.x) + abs(d.y) + 2 * d.r, 2**d.scale)
                      for d in disks)
    rho = 1 / (2**(kmax + 2) * kmax * (bound + 1)**(kmax - 1))
    disks = [d.refined_below(2 * rho / den) for d in disks]
    s = max(d.scale for d in disks)
    cx = [den * (d.x << (s - d.scale)) for d in disks]
    cy = [den * (d.y << (s - d.scale)) for d in disks]
    cr = [den * (d.r << (s - d.scale)) for d in disks]
    reals = [(i,) for i in range(n) if mirror[i] == i]
    pairs = [(i, mirror[i]) for i in range(n) if mirror[i] > i]
    for k in range(1, kmax + 1):
        found = []
        for p in range(min(k // 2, len(pairs)) + 1):
            for singles in combinations(reals, k - 2 * p):
                for conj in combinations(pairs, p):
                    members = [i for u in singles + conj for i in u]
                    tx = sum(cx[i] for i in members)
                    ty = sum(cy[i] for i in members)
                    tr = sum(cr[i] for i in members)
                    if _integer_near(tx, ty, tr, s) is None:
                        continue
                    cand = _integer_candidate(members, cx, cy, cr, s)
                    if cand is not None and not up.divmod_poly(g, cand)[1]:
                        found.append(tuple(c / den**(k - i)
                                           for i, c in enumerate(cand)))
        if found:
            return found
    return ()


def _integer_near(re, im, err, s):
    """The integer m with |re - m 2**s| <= err, provided |im| <= err, or
    None: a box around an integer coefficient.  err < 2**(s-1), so there
    is at most one."""
    if abs(im) > err:
        return None
    m = -((err - re) >> s)             # ceil((re - err) / 2**s)
    return m if m << s <= re + err else None


def _integer_candidate(members, cx, cy, cr, s):
    """The monic integer polynomial (constant first) whose coefficients
    are the integers inside the enclosures of prod (x - c_i) over the
    member disks, or None when some enclosure holds no integer.  All
    coefficients are over 2**(s k): the centre product
    prod (2**s x - C_i), and the majorants prod (2**s x + M_i) and
    prod (2**s x + M_i + R_i) with M_i >= |C_i|, whose difference bounds
    the error of each coefficient."""
    re, im, lo, hi = [1], [0], [1], [1]
    for i in members:
        x, y, m = cx[i], cy[i], abs(cx[i]) + abs(cy[i])
        re, im = (_times_x(re, s, [y * b - x * a for a, b in zip(re, im)]),
                  _times_x(im, s, [-(x * b + y * a) for a, b in zip(re, im)]))
        lo = _times_x(lo, s, [m * a for a in lo])
        hi = _times_x(hi, s, [(m + cr[i]) * a for a in hi])
    k = len(members)
    cand = []
    for j in range(k):
        c = _integer_near(re[j], im[j], hi[j] - lo[j], s * k)
        if c is None:
            return None
        cand.append(Fraction(c))
    return tuple(cand) + (Fraction(1),)


def _times_x(p, s, q):
    """2**s x p + q for constant-first lists, len(q) == len(p)."""
    return [q[0]] + [(a << s) + b for a, b in zip(p, q[1:])] + [p[-1] << s]


class FieldElement:
    """Element of a NumberField: the integer numerators `num` of its
    power-basis coordinates over a positive denominator `den`, in lowest
    terms (gcd(den, *num) == 1), so equal elements have equal (num, den).
    The Fraction coordinates `coords` are built when they are read."""

    __slots__ = ("parent", "num", "den")

    def __init__(self, parent, coords):
        num, self.den = _integer_row(coords)
        self.parent, self.num = parent, tuple(num)

    @property
    def coords(self):
        return tuple(Fraction(x, self.den) for x in self.num)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.parent != self.parent:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.parent.from_rational(other)
        return NotImplemented

    def _add(self, other, sign):
        """self + sign * other over the lcm of the denominators."""
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        g = gcd(self.den, o.den)
        u, v = o.den // g, sign * (self.den // g)
        return self.parent.element_over(
            [a * u + b * v for a, b in zip(self.num, o.num)], self.den * u)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.parent, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.parent.element_over(
                [a * other.numerator for a in self.num],
                self.den * other.denominator)
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return _reduced(self.parent, _convolve(self.num, o.num),
                        self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return o * self.inverse()

    def inverse(self):
        """The solution of self * x = 1: the coordinates of x solve
        mult_matrix(self) x = e_0, one rational elimination."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        e_0 = coordinate_matrix((self.parent.one(),))
        x = solve_blocks(mult_matrix(self), (e_0,))[0]
        return row_elements(self.parent, x.transpose())[0]

    def is_zero(self):
        return not any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # the lowest terms of a rational c are (c.numerator, 0, ...)
            # over c.denominator
            return (self.den == other.denominator
                    and self.num[0] == other.numerator and not any(self.num[1:]))
        if not isinstance(other, FieldElement):
            return NotImplemented
        return (self.parent == other.parent and self.den == other.den
                and self.num == other.num)

    def __bool__(self):
        return not self.is_zero()

    def __hash__(self):
        return hash((self.parent, self.num, self.den))

    def __repr__(self):
        return f"FieldElement({list(self.coords)})"


def _element(field, num, den):
    """The element num / den of the field for a tuple num and den > 0 in
    lowest terms."""
    x = FieldElement.__new__(FieldElement)
    x.parent, x.num, x.den = field, num, den
    return x


def _convolve(a, b):
    """The product of two integer polynomials (constant first, the same
    length e), of length 2e - 1."""
    conv = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                conv[j] += x * y
    return conv


def _reduced(field, conv, den):
    """The element conv(gen) / den for an integer polynomial conv of
    length 2e - 1, reduced by the integer power table."""
    table, dt = _integer_power_table(field)
    e = field.degree
    out = [c * dt for c in conv[:e]]
    for c, row in zip(conv[e:], table):
        if c:
            for i, p in row:
                out[i] += c * p
    return field.element_over(out, den * dt)


def field_dot(u, v):
    """sum u_i v_i for vectors of rationals and elements of one number
    field, not all rational: the convolutions of the numerators are summed
    over one common denominator and reduced by the power table once."""
    field = next(x.parent for x in chain(u, v) if isinstance(x, FieldElement))
    terms = []
    for a, b in zip(u, v):
        a, b = (x if isinstance(x, FieldElement) else field.from_rational(x)
                for x in (a, b))
        if a.parent != field or b.parent != field:
            raise ValueError("elements of different fields")
        if a and b:
            terms.append((a.num, b.num, a.den * b.den))
    den = lcm(*(d for _, _, d in terms))
    acc = [0] * (2 * field.degree - 1)
    for a, b, d in terms:
        s = den // d
        for k, c in enumerate(_convolve(a, b)):
            acc[k] += c * s
    return _reduced(field, acc, den)


@lru_cache(maxsize=None)
def _integer_power_table(field):
    """Coordinates of gen**e, ..., gen**(2e-2) in the power basis over one
    common denominator: (rows, den), each row the nonzero (index,
    numerator) pairs.  Each power is gen times the one before, in lowest
    terms, with gen**e = -(f_0 + ... + f_(e-1) gen**(e-1)) = -a / D for
    a = D f on integers."""
    a, _ = _integer_poly(field.defining_poly)
    e, lead = field.degree, a[-1]
    cur, den = _lowest([-c for c in a[:-1]], lead)
    rows = [(cur, den)]
    for _ in range(e - 2 if e >= 2 else 0):
        # gen * cur = shifted cur - cur[e-1] a / D
        carry = cur[-1]
        cur, den = _lowest([lead * x - carry * c
                            for x, c in zip([0] + cur[:-1], a)], den * lead)
        rows.append((cur, den))
    common = lcm(*(d for _, d in rows))
    return tuple(tuple((i, x * (common // d)) for i, x in enumerate(r) if x)
                 for r, d in rows), common


def coordinate_matrix(elements):
    """The rational matrix whose column j holds the power-basis
    coordinates of elements[j], built on their integer numerators over
    one common denominator."""
    den = lcm(*(x.den for x in elements))
    cols = [[a * (den // x.den) for a in x.num] for x in elements]
    return Matrix.from_int_rows(tuple((r, den) for r in zip(*cols)),
                                len(elements))


def row_elements(field, m):
    """The elements whose power-basis coordinates are the rows of the
    rational matrix m."""
    return tuple(field.element_over(r, d) for r, d in _integer_rows(m))


def mult_matrix(a):
    """Matrix of multiplication by a on the power basis (columns are the
    images of the basis)."""
    cols = [a]
    gen = a.parent.gen()
    for _ in range(1, a.parent.degree):
        cols.append(cols[-1] * gen)
    return coordinate_matrix(cols)


def _field_of(m):
    """The number field of the FieldElement entries of m."""
    x = next((x for r in m.entries for x in r if isinstance(x, FieldElement)),
             None)
    if x is None:
        raise TypeError("a matrix over a number field is required")
    return x.parent


def regular_representation(m):
    """The rational matrix of v -> m v on the power-basis coordinates of
    E^n, for an n x n matrix m over a number field E (rational entries
    count as elements of E): its (i, j) block is mult_matrix(m[i][j]),
    written out as zeros for a zero entry."""
    field = _field_of(m)
    one, e = field.one(), field.degree
    zero = (((0,) * e, 1),) * e
    blocks = [[_integer_rows(mult_matrix(one._coerce(x))) if x else zero
               for x in r] for r in m.entries]
    return Matrix.from_int_rows(
        tuple(_join([b[k] for b in row])
              for row in blocks for k in range(e)),
        m.cols * e)


def field_matrix_inverse(m):
    """The inverse of a square matrix m over a number field, or None when
    m is singular.  Column j of m^-1 solves m x = e_j, so its coordinates
    solve R x = the coordinates of e_j for R = regular_representation(m):
    one rational elimination, read back block by block."""
    field = _field_of(m)
    e, n = field.degree, m.rows
    units = Matrix.from_int_rows(
        tuple(([int(k == j * e) for j in range(n)], 1) for k in range(n * e)),
        n)
    x = solve_blocks(regular_representation(m), (units,))
    if x is None:
        return None
    cols = _integer_rows(x[0].transpose())
    return Matrix(tuple(
        tuple(field.element_over(c[i * e:(i + 1) * e], d) for c, d in cols)
        for i in range(n)))


class ComplexEmbedding:
    """One embedding of a number field into C, certified by the isolating
    disk (RootDisk) of the image of the generator."""

    __slots__ = ("parent", "index", "root", "is_real", "conjugate_index")

    def __init__(self, parent, index, root, is_real, conjugate_index):
        self.parent = parent
        self.index = index
        self.root = root
        self.is_real = is_real
        self.conjugate_index = conjugate_index

    def eval_box(self, element, width):
        """Integers (X, Y, R, D) with |sigma(element) - (X + iY)/D| <= R/D,
        a function of the width alone.  The generator's isolating disk
        D(c, r) is refined below the width by Newton steps; (X + iY)/D is
        the exact value p(c) of the element p, and R/D bounds
        |p(z) - p(c)| <= P(|c| + r) - P(|c|) on the disk, for P with the
        absolute values of the coefficients of p and |c| rounded up.  At
        a real embedding Y = 0."""
        if element.parent != self.parent:
            raise ValueError("element of a different field")
        disk = self.root.refined_below(width)
        a = list(element.num)
        while len(a) > 1 and not a[-1]:
            a.pop()
        den = element.den
        s = disk.scale
        x, y = _horner(a, disk.x, disk.y, s)
        m = _ceil_sqrt(disk.x * disk.x + disk.y * disk.y, 1)
        b = [abs(c) for c in a]
        r = _horner(b, m + disk.r, 0, s)[0] - _horner(b, m, 0, s)[0]
        return x, y, r, den << (s * (len(a) - 1))

    def __repr__(self):
        kind = "real" if self.is_real else "complex"
        d = self.root
        return (f"ComplexEmbedding(#{self.index}, {kind}, "
                f"disk=({d.x}, {d.y}, {d.r}, 2**{d.scale}))")


@lru_cache(maxsize=None)
def nf_embeddings(field):
    """All complex embeddings: real ones first (increasing), then nonreal
    sorted by (real part, imaginary part).  Conjugation is recorded as an
    index involution fixing exactly the real embeddings."""
    f = field.defining_poly
    reals = isolate_real_roots(f)
    embs = [ComplexEmbedding(field, i, r, True, i) for i, r in enumerate(reals)]
    off = len(reals)
    n_nonreal = field.degree - up.count_real_roots(f)
    for pos, (disk, conj_pos) in enumerate(isolate_nonreal_roots(f, n_nonreal)):
        embs.append(ComplexEmbedding(field, off + pos, disk, False, off + conj_pos))
    return tuple(embs)


@lru_cache(maxsize=None)
def roots_in_field(field):
    """All roots of f inside the field itself, from sympy's factorization
    of f over the field (Trager's norm method); always contains the
    generator.  Past MAX_TRAGER_NORM_DEGREE the field is TooLarge."""
    f = field.defining_poly
    e = field.degree
    gen = field.gen()
    if e == 1:
        return (gen,)
    if e * e > MAX_TRAGER_NORM_DEGREE:
        raise TooLarge(f"Trager's norm of degree {e * e} exceeds the cap "
                       f"{MAX_TRAGER_NORM_DEGREE}")
    import sympy

    poly = sympy.Poly(f[::-1], sympy.Symbol("x"))
    # a root of f generates the extension itself, so the coefficients of
    # a domain element are its power-basis coordinates
    dom = sympy.QQ.algebraic_field(sympy.CRootOf(poly, 0))
    roots = []
    for g, _mult in poly.set_domain(dom).factor_list()[1]:
        if g.degree() == 1:
            lead, c = g.rep.to_list()
            coords = [Fraction(q.numerator, q.denominator)
                      for q in reversed((-c / lead).to_list())]
            roots.append(field.element(coords + [0] * (e - len(coords))))
    if not any(r == gen for r in roots):
        raise InternalError("Trager root search lost the generator")
    return tuple(sorted(roots, key=lambda r: r.coords))


@lru_cache(maxsize=None)
def conjugation_automorphism(field, index):
    """Image of the generator under the automorphism tau satisfying
    sigma(tau(v)) = conj(sigma(v)) for the embedding of the given index,
    or None when the embedded field is not conjugation stable.

    At a nonreal embedding the image g is guessed numerically
    (_guess_conjugation) at each precision of _GUESS_DIGITS and accepted
    only on two exact checks: f(g) = 0 in the field, so gen -> g is an
    automorphism, and sigma(g) lies in the isolating disk of the
    conjugate root, so sigma(tau(gen)) = conj(sigma(gen)).  Together
    they give sigma o tau = conj o sigma on the whole field, hence
    tau o tau = id; no float decides the result.  When conjugation does
    not commute with every embedding that guess is wrong, and g is
    guessed from the chosen embedding alone (relations.relation_guess)
    at the same precisions, under the same two checks.  When neither
    certifies the roots of f in the field come from sympy's factorization
    over the field instead (roots_in_field), and only that search returns
    None (or raises TooLarge past its cap).
    """
    embs = nf_embeddings(field)
    emb = embs[index]
    if emb.is_real:
        return field.gen()

    def certified(g):
        # f(g) = 0 first: _embedded_root_is terminates only on roots of f
        return (g is not None and up.eval_at(field.defining_poly, g).is_zero()
                and _embedded_root_is(g, emb, emb.conjugate_index))

    for digits in _GUESS_DIGITS:
        g = _guess_conjugation(field, digits)
        if certified(g):
            return g
    # imported here: only fields on which conjugation does not commute
    # with every embedding get this far
    from .relations import relation_guess

    for digits in _GUESS_DIGITS:
        g = relation_guess(emb, digits)
        if certified(g):
            return g
    for cand in roots_in_field(field):
        if _embedded_root_is(cand, emb, emb.conjugate_index):
            return cand
    return None


def _guess_conjugation(field, digits):
    """Guess of tau(gen), assuming conjugation commutes with every
    embedding, at the binary precision of the given decimal precision.
    For the least common denominator D of f, beta = D gen is a root of
    the monic integer polynomial h(y) = D**e f(y/D), and tau(beta) is an
    algebraic integer of the field, so H(beta) = h'(beta) tau(beta) lies
    in Z[beta] (H. Cohen, GTM 138, 4.4): its coordinates H_j are integers,
    the sums of rootiso.approx_conjugation.  Each sum is rounded to the
    nearest integer, and tau(gen) = H(beta) / (D h'(beta)), where
    h'(beta) = D**(e-1) f'(gen).  None when the root approximations fail
    or a sum is not within 2**-(bits // 2) of an integer, at that binary
    precision bits."""
    bits = digits_bits(digits)
    sums = approx_conjugation(field.defining_poly, bits)
    if sums is None:
        return None
    w = 2 * bits
    coeffs = [(c + (1 << (w - 1))) >> w for c in sums]
    if any(abs(c - (m << w)) >> (w - bits // 2)
           for c, m in zip(sums, coeffs)):
        return None
    # a = D f and da = D f' on integers, D = a[-1]: tau(gen) is
    # H(D gen) / (D**(e-1) da(gen))
    a, da = _integer_poly(field.defining_poly)
    den = a[-1]
    num = field.element_over([m * den**j for j, m in enumerate(coeffs)],
                             den**(field.degree - 1))
    return num / field.element_over(da, 1)


def _embedded_root_is(cand, emb, root_index):
    """Certified test: does sigma(cand), a root of the defining poly,
    coincide with the root isolated by embedding root_index?  The root
    sigma(cand) lies in exactly one of the disjoint closed isolating
    disks, so the disk of its value meets that one always and, once
    narrow enough, no other."""
    embs = nf_embeddings(emb.parent)
    width = Fraction(1, 2**16)
    while True:
        x, y, r, d = emb.eval_box(cand, width)
        hits = []
        for other in embs:
            k = other.root
            e = 1 << k.scale
            dx, dy = x * e - k.x * d, y * e - k.y * d
            if dx * dx + dy * dy <= (r * e + k.r * d)**2:
                hits.append(other.index)
        if len(hits) == 1:
            return hits[0] == root_index
        width /= 2**8


@lru_cache(maxsize=None)
def conjugation_matrix(field, index):
    """Rational matrix of the conjugation automorphism tau of the
    embedding on power-basis coordinates, column j holding tau(gen**j),
    or None when conjugation_automorphism is None."""
    g = conjugation_automorphism(field, index)
    if g is None:
        return None
    powers = [field.one()]
    for _ in range(1, field.degree):
        powers.append(powers[-1] * g)
    return coordinate_matrix(powers)


def conjugate_vector(vec, emb):
    """The elements representing conj(sigma(v)) inside the field, for the
    elements v of vec: the matrix of the conjugation automorphism applied
    to their coordinates."""
    from ..errors import ConjugationNotInternal

    tau = conjugation_matrix(emb.parent, emb.index)
    if tau is None:
        raise ConjugationNotInternal(
            "complex conjugation does not stabilize the embedded field; "
            "re-present the data over a conjugation-closed field")
    return _apply(tau, vec)


def _apply(matrix, vec):
    """The elements whose coordinates are the rational matrix times those
    of each element of vec, on integers, reading each row once."""
    form = _integer_rows(matrix)
    den = lcm(*(d for _, d in form))
    images = [[sum(map(mul, r, v.num)) * (den // d) for v in vec]
              for r, d in form]
    return tuple(v.parent.element_over(list(num), den * v.den)
                 for v, num in zip(vec, zip(*images)))


def certified_sign(v, emb):
    """Sign (-1, 0, +1) of a field element real-valued at the embedding.
    Zero is decided exactly; a nonzero sign is the sign of X in the disk
    (X, Y, R, D) of eval_box once |X| > R, at doubling precision from 64
    bits.  The value is real and nonzero, so the ramp ends.

    Realness must be certifiable: a real embedding, or v fixed by the
    conjugation automorphism.
    """
    if v.is_zero():
        return 0
    if not emb.is_real:
        tau = conjugation_matrix(v.parent, emb.index)
        if tau is None or _apply(tau, (v,))[0] != v:
            raise NotRealValued(
                "value is not certifiably real at this embedding")
    bits = 64
    while True:
        x, _, r, _ = emb.eval_box(v, Fraction(1, 2**bits))
        if abs(x) > r:
            return 1 if x > 0 else -1
        bits *= 2
