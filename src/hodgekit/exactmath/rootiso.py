"""Certified root isolation for monic squarefree rational polynomials.

All roots of f (degree n) are isolated at once by Weierstrass-Gerschgorin
inclusion disks (Smith 1970, JACM 17; Carstensen 1991, Numer. Math. 59).
Approximations z_i, Gaussian rationals with denominator 2**b, come from
Durand-Kerner iteration (Kerner 1966), proposed in complex doubles and
finished on Python integers in fixed point (approx_roots); no float
decides anything.  The nonreal ones are mirrored exactly about the real
axis, and the Weierstrass corrections
w_i = f(z_i) / prod_{j != i} (z_i - z_j) are computed exactly.  The roots
of f are the eigenvalues of diag(z) - w 1^T, so by Gerschgorin's theorem
they lie in the union of the disks D(z_i - w_i, (n - 1)|w_i|), and a
union of k of them disjoint from the rest holds exactly k roots.  Each
such disk lies inside D(z_i, n|w_i|); once the bounding squares of these
are pairwise disjoint, every disk holds exactly one root.  Otherwise the
precision is raised, and past the last one f is rejected as TooLarge:
it is squarefree, so only the precision ran out, not a bug.

The disks also decide which roots are real.  The family is closed under
conjugation: mirrored centres have conjugate corrections, hence equal
radii.  A disk centred on the real axis is its own mirror, so its one
root is its own conjugate: real.  A real root in a disk off the axis
would lie in the mirror disk too, but their bounding squares are
disjoint.  The Sturm count of the real roots (unipoly.count_real_roots)
only cross-checks this.

A disk refines by Newton steps in Q(i), each certified by the
single-root bound |z - alpha| <= n |f(z) / f'(z)|: when that disk lies
inside the isolating disk, it holds the isolated root.  From a real
centre the step is real, so a real disk stays on the axis.

Real roots are sorted by centre, nonreal ones by (real part, imaginary
part).  Conjugates share their real part; other real parts are compared
in integers on refined disks.  Twice a real part is a sum of two
distinct roots of f, hence a root of an integer polynomial of degree
e(e-1)/2 whose roots are those sums, and Mahler's separation bound on
it gives the refinement past which real parts that still overlap are
equal.
"""

from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache
from math import inf, isfinite, isqrt, lcm

from ..errors import InternalError, TooLarge

# decimal precisions of the root approximations, tried in turn
ROOT_DIGITS = (30, 60, 120, 240, 480, 960)
# sweeps of the Durand-Kerner iteration before approx_roots gives up
_MAX_STEPS = 200
# sweeps without a new low of the largest relative correction after which
# the double-precision iteration counts as stalled; on the Mignotte
# polynomials x^n - 2(ax - 1)^2 it climbs for up to 21 sweeps before it
# falls again and settles
_STALL_SWEEPS = 32


@lru_cache(maxsize=None)
def _integer_poly(f):
    """Integer coefficients of L*f and of its derivative, for the least
    common denominator L of f."""
    den = lcm(*(c.denominator for c in f))
    a = tuple(int(c * den) for c in f)
    return a, tuple(k * c for k, c in enumerate(a))[1:]


def _horner(a, x, y, s):
    """sum_k a_k Z^k 2**(s (n - k)) for Z = x + iy, n = deg a: the value
    at z = Z / 2**s scaled by 2**(s n), as a pair of integers."""
    re, im = a[-1], 0
    shift = 0
    for c in reversed(a[:-1]):
        shift += s
        re, im = re * x - im * y + (c << shift), re * y + im * x
    return re, im


def _ceil_sqrt(num, den):
    """An integer at least sqrt(num / den)."""
    q = -(-num // den)
    r = isqrt(q)
    return r if r * r == q else r + 1


def _round_div(num, den):
    return (2 * num + den) // (2 * den)


class RootDisk:
    """Closed disk |z - (x + iy) / 2**scale| <= r / 2**scale holding
    exactly one root of the monic squarefree polynomial poly.  It has no
    __slots__: `_successor` is cached in the instance dict."""

    def __init__(self, poly, x, y, r, scale):
        self.poly = poly
        self.x = x
        self.y = y
        self.r = r
        self.scale = scale

    def refined_below(self, width):
        """A disk of diameter at most width around the same root: the
        first one narrow enough on the chain of Newton successors."""
        disk = self
        while Fraction(2 * disk.r, 2**disk.scale) > width:
            disk = disk._successor
        return disk

    @cached_property
    def _successor(self):
        """The disk's Newton successor.  A disk is immutable, so it is
        computed once and later refinements walk the same chain."""
        return self._newton_step()

    def _newton_step(self):
        """z - f(z)/f'(z) from the centre, rounded at twice the scale, with
        radius n |f/f'| there; certified by lying inside this disk."""
        a, da = _integer_poly(self.poly)
        n = len(a) - 1
        s, t = self.scale, 2 * self.scale
        hr, hi = _horner(a, self.x, self.y, s)
        gr, gi = _horner(da, self.x, self.y, s)
        den = gr * gr + gi * gi
        if den == 0:
            raise InternalError("derivative vanishes inside an isolating disk")
        # f(z)/f'(z) = H / (2**s H'), so the step is (Z H' - H) / (2**s H')
        nr = self.x * gr - self.y * gi - hr
        ni = self.x * gi + self.y * gr - hi
        x = _round_div((nr * gr + ni * gi) << (t - s), den)
        y = _round_div((ni * gr - nr * gi) << (t - s), den)
        hr, hi = _horner(a, x, y, t)
        gr, gi = _horner(da, x, y, t)
        if gr == gi == 0:
            raise InternalError("derivative vanishes inside an isolating disk")
        r = _ceil_sqrt(n * n * (hr * hr + hi * hi), gr * gr + gi * gi)
        cx, cy, cr = self.x << (t - s), self.y << (t - s), self.r << (t - s)
        if r > cr or (x - cx)**2 + (y - cy)**2 > (cr - r)**2:
            raise InternalError("Newton step left the isolating disk")
        return RootDisk(self.poly, x, y, r, t)


def digits_bits(digits):
    """Binary precision of a decimal precision of ROOT_DIGITS: at least
    digits log2(10) bits."""
    return digits * 10 // 3 + 1


def _fx_divide(a, x, y, w):
    """Synthetic division of the integer polynomial a by X - z, for
    z = (x + iy) / 2**w, in fixed point: every value v is the pair of
    integers ~ 2**w v, rounded down after each product.  Returns the
    quotient coefficients (constant first) and a(z)."""
    re, im = a[-1] << w, 0
    quot = [None] * (len(a) - 1)
    for k in range(len(a) - 2, -1, -1):
        quot[k] = re, im
        re, im = ((re * x - im * y) >> w) + (a[k] << w), (re * y + im * x) >> w
    return quot, (re, im)


@lru_cache(maxsize=None)
def approx_roots(f, bits):
    """Gaussian integers X + iY with (X + iY) / 2**bits close to the roots
    of the Fraction polynomial f, or None when _durand_kerner fails."""
    sweep = _durand_kerner(f, bits)
    if sweep is None or not sweep[2]:
        return None
    half = 1 << (bits - 1)
    return tuple(((x + half) >> bits, (y + half) >> bits)
                 for x, y in zip(sweep[0], sweep[1]))


@lru_cache(maxsize=None)
def _durand_kerner(f, bits):
    """(xs, ys, converged): the last iterate of Durand-Kerner iteration
    z_i <- z_i - a(z_i) / (l prod_{j != i} (z_i - z_j)), a = l f with
    integer coefficients, in the fixed point 2**w, w = 2 bits, which covers
    the cancellation in evaluating a dense f near its roots; None when two
    approximations collide.  It stops once every correction of a sweep is
    below 2**-(bits + 8), or after _MAX_STEPS sweeps.  Each ROOT_DIGITS
    level starts from the last iterate of the level below, converged or
    not; the first from the iterate of _float_proposal, else from
    the powers of 0.4 + 0.9i."""
    a, _ = _integer_poly(f)
    n, lead = len(a) - 1, a[-1]
    w = 2 * bits
    levels = [digits_bits(d) for d in ROOT_DIGITS]
    below = levels[levels.index(bits) - 1] if bits in levels[1:] else None
    warm = below and _durand_kerner(f, below)
    if warm:
        xs, ys = ([v << (w - 2 * below) for v in vs] for vs in warm[:2])
    elif below is None and (seed := _float_proposal(f)) is not None:
        # exact: a double is an integer over a power of 2
        xs, ys = ([(p << w) // q for p, q in map(float.as_integer_ratio, vs)]
                  for vs in ([z.real for z in seed], [z.imag for z in seed]))
    else:
        br, bi = (2 << w) // 5, (9 << w) // 10
        xs, ys = [1 << w], [0]
        for _ in range(n - 1):
            x, y = xs[-1], ys[-1]
            xs.append((x * br - y * bi) >> w)
            ys.append((x * bi + y * br) >> w)
    tol = 1 << (w - bits - 8)
    for _ in range(_MAX_STEPS):
        converged = True
        for i in range(n):
            x, y = xs[i], ys[i]
            dr, di = lead << w, 0
            for j in range(n):
                if j != i:
                    u, v = x - xs[j], y - ys[j]
                    dr, di = (dr * u - di * v) >> w, (dr * v + di * u) >> w
            den = dr * dr + di * di
            if den == 0:
                return None
            _, (pr, pi) = _fx_divide(a, x, y, w)
            cr = ((pr * dr + pi * di) << w) // den
            ci = ((pi * dr - pr * di) << w) // den
            xs[i], ys[i] = x - cr, y - ci
            if abs(cr) >= tol or abs(ci) >= tol:
                converged = False
        if converged:
            break
    return xs, ys, converged


def _float_proposal(f):
    """The Durand-Kerner iterate of f in complex doubles, from the powers
    of 0.4 + 0.9i, once every correction of a sweep is at most 2**-40 of
    its root, or once the largest relative correction of a sweep has not
    reached a new low for _STALL_SWEEPS sweeps: a pair of roots closer
    than doubles resolve keeps it at a floor above 2**-40.  None when a
    coefficient overflows a float, an iterate is not finite, or neither
    happens within _MAX_STEPS sweeps.  It only proposes: _durand_kerner
    finishes in fixed point, and the Weierstrass disks certify."""
    try:
        c = [float(x / f[-1]) for x in f]
        n = len(c) - 1
        zs = [(0.4 + 0.9j)**k for k in range(n)]
        low, stalled = inf, 0
        for _ in range(_MAX_STEPS):
            worst = 0.0
            for i, z in enumerate(zs):
                p, d = 1, 1
                for a in reversed(c[:-1]):
                    p = p * z + a
                for j, u in enumerate(zs):
                    if j != i:
                        d *= z - u
                step = p / d
                if not isfinite(abs(step)):
                    return None
                zs[i] = z - step
                worst = max(worst, abs(step) / abs(z) if z else inf)
            if worst <= 2.0**-40:
                return zs
            low, stalled = (worst, 0) if worst < low else (low, stalled + 1)
            if stalled == _STALL_SWEEPS:
                return zs
    except (OverflowError, ZeroDivisionError):
        pass
    return None


def approx_conjugation(f, bits):
    """Fixed-point sums c_j, with c_j / 2**(2 bits) close to
    H_j = sum_k conj(s_k) b_j(s_k), or None when there are no root
    approximations.  Here h(y) = D**e f(y/D) is monic with integer
    coefficients for the least common denominator D of f, its roots are
    s_k = D r_k for the approximate roots r_k of f (approx_roots(f, bits)),
    and h(y) / (y - s_k) = sum_j b_j(s_k) y**j by synthetic division.
    H = sum_j H_j y**j takes the value h'(s_k) conj(s_k) at each s_k.
    Only the real parts are kept: H has real coefficients when
    conjugation commutes with every embedding, the one case in which it
    is used."""
    roots = approx_roots(f, bits)
    if roots is None:
        return None
    e, den = len(f) - 1, lcm(*(c.denominator for c in f))
    h = tuple(int(c * den**(e - k)) for k, c in enumerate(f))
    w = 2 * bits
    sums = [0] * e
    for x, y in roots:
        x, y = den * x << bits, den * y << bits
        quot, _ = _fx_divide(h, x, y, w)
        for j, (qr, qi) in enumerate(quot):
            sums[j] += (x * qr + y * qi) >> w
    return sums


def _mirrored_centres(roots, bits):
    """The approximations X + iY of approx_roots, closed under
    conjugation: reals on the axis, then the upper ones, then their exact
    mirrors.  Returns (centres, conjugate index) or None when the
    approximations do not pair up."""
    reals, upper, lower = [], [], 0
    for x, y in roots:
        if abs(y) << (bits // 2) <= abs(x) + (1 << bits):
            reals.append((x, 0))
        elif y > 0:
            upper.append((x, y))
        else:
            lower += 1
    if lower != len(upper):
        return None
    m, k = len(reals), len(upper)
    centres = reals + upper + [(x, -y) for x, y in upper]
    mirror = (tuple(range(m)) + tuple(range(m + k, m + 2 * k))
              + tuple(range(m, m + k)))
    return centres, mirror


def _weierstrass_disks(f, centres, bits):
    """The disks D(z_i, n|w_i|) at the centres z_i = (X + iY) / 2**bits,
    or None when two centres coincide or two bounding squares meet."""
    a, _ = _integer_poly(f)
    n, den = len(a) - 1, a[-1]
    disks = []
    for i, (x, y) in enumerate(centres):
        hr, hi = _horner(a, x, y, bits)
        pr, pi = 1, 0
        for j, (u, v) in enumerate(centres):
            if j != i:
                pr, pi = pr * (x - u) - pi * (y - v), pr * (y - v) + pi * (x - u)
        if pr == pi == 0:
            return None
        # f(z_i) = H / (den 2**(bits n)) and the product is P / 2**(bits (n-1)),
        # so n |w_i| 2**bits = n |H| / (den |P|)
        r = _ceil_sqrt(n * n * (hr * hr + hi * hi), den * den * (pr * pr + pi * pi))
        disks.append(RootDisk(f, x, y, r, bits))
    for i, p in enumerate(disks):
        for q in disks[i + 1:]:
            gap = p.r + q.r
            if abs(p.x - q.x) <= gap and abs(p.y - q.y) <= gap:
                return None
    return tuple(disks)


@lru_cache(maxsize=None)
def root_disks(f):
    """Isolating disks of all roots of the monic squarefree f, closed
    under conjugation: (disks, conjugate index of each disk); TooLarge
    when they do not separate at the last precision of ROOT_DIGITS."""
    for digits in ROOT_DIGITS:
        bits = digits_bits(digits)
        roots = approx_roots(f, bits)
        if roots is None:
            continue
        paired = _mirrored_centres(roots, bits)
        if paired is None:
            continue
        disks = _weierstrass_disks(f, paired[0], bits)
        if disks is not None:
            return disks, paired[1]
    raise TooLarge("roots could not be separated by inclusion disks at "
                   f"{ROOT_DIGITS[-1]} digits")


def isolate_real_roots(f):
    """The isolating disks of the real roots of f, which lie on the real
    axis, sorted increasingly."""
    disks, _ = root_disks(f)
    return sorted((d for d in disks if d.y == 0), key=lambda d: d.x)


def isolate_nonreal_roots(f, n_nonreal):
    """Isolating disks for the n_nonreal nonreal roots of f, sorted by
    (real part, imaginary part).  n_nonreal, from the Sturm count, must
    match the disks off the real axis.  Returns a list of
    (RootDisk, conjugate_position) pairs."""
    disks, mirror = root_disks(f)
    order = [i for i, d in enumerate(disks) if d.y != 0]
    if len(order) != n_nonreal:
        raise InternalError("Sturm count contradicts the root disks")
    ranking = _Ranking(f, disks, mirror)
    order.sort(key=cmp_to_key(ranking.compare))
    pos = {i: p for p, i in enumerate(order)}
    return [(ranking.disks[i], pos[mirror[i]]) for i in order]


class _Ranking:
    """Exact comparison of nonreal roots by (real part, imaginary part),
    refining the disks as it goes."""

    def __init__(self, f, disks, mirror):
        self.f = f
        self.disks = list(disks)
        self.mirror = mirror

    def compare(self, i, j):
        if self.mirror[i] == j:
            # conjugates: same real part, and neither disk meets the axis
            return -1 if self.disks[i].y < 0 else 1
        return (self._separate(i, j, 0, self._tie_bits)
                or self._separate(i, j, 1))

    @cached_property
    def _tie_bits(self):
        """Refinement, in bits, at which real parts that still overlap are
        equal.  For a = l f with integer coefficients, 2 Re r = r + conj(r)
        is a root of S(t) = l**(e-1) prod_{p<q} (t - r_p - r_q), whose
        coefficients are l**(e-1) times symmetric integer polynomials of
        degree at most e - 1 in each root, so integers.  The squarefree
        part of S divides S in Z[t]: its degree is at most n = e(e-1)/2
        and its Mahler measure at most M(S), so two distinct roots of S
        differ by more than sqrt(3) n**(-(n+2)/2) M(S)**(1-n) (Mahler
        1964).  Disks of diameter below 2**-bits whose real projections
        meet put twice the real parts within 2**(2-bits)."""
        a, _ = _integer_poly(self.f)
        e = len(a) - 1
        n = e * (e - 1) // 2
        # 16 |r_p| rounded up, from each disk's centre and radius
        rho = [-(-16 * (_ceil_sqrt(d.x * d.x + d.y * d.y, 1) + d.r) >> d.scale)
               for d in self.disks]
        measure = a[-1]**(e - 1)
        for k, p in enumerate(rho):
            for q in rho[k + 1:]:
                measure *= max(16, p + q)
        log_m = measure.bit_length() - 4 * n
        return (n + 2) * n.bit_length() // 2 + (n - 1) * log_m + 3

    def _refine(self, i, bits):
        self.disks[i] = self.disks[i].refined_below(Fraction(1, 2**bits))
        return self.disks[i]

    def _separate(self, i, j, part, max_bits=None):
        """Sign of (part of root i) - (part of root j), refining until the
        disks' projections are disjoint; 0 when they still meet at
        max_bits."""
        bits = 64
        while True:
            c = _projection_order(self._refine(i, bits), self._refine(j, bits),
                                  part)
            if c or (max_bits is not None and bits >= max_bits):
                return c
            bits *= 2


def _projection_order(p, q, part):
    """-1 or 1 when the projections of the disks p and q on the real
    (part 0) or imaginary (part 1) axis are disjoint, by their order;
    else 0.  Compared in integers at the finer of the two scales."""
    s = max(p.scale, q.scale)
    a, ra = (p.x, p.y)[part] << (s - p.scale), p.r << (s - p.scale)
    b, rb = (q.x, q.y)[part] << (s - q.scale), q.r << (s - q.scale)
    if a + ra < b - rb:
        return -1
    if b + rb < a - ra:
        return 1
    return 0
