"""Univariate polynomial helpers.

Polynomials are tuples of coefficients, constant term first, with no
trailing zeros (the zero polynomial is the empty tuple).  The arithmetic
routines take any exact scalar, and eval_at a FieldElement argument;
there is no Euclid over a number field.  Sturm sequences and root
counting take rational coefficients and run on integers.
"""

import math
from fractions import Fraction
from functools import lru_cache


def normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def degree(p):
    """Degree, or -1 for the zero polynomial."""
    return len(p) - 1


def add(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else 0
        b = q[i] if i < len(q) else 0
        out.append(a + b)
    return normalize(out)


def neg(p):
    return tuple(-c for c in p)


def mul(p, q):
    if not p or not q:
        return ()
    out = [p[0] * q[0] * 0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return normalize(out)


def scale(p, c):
    if c == 0:
        return ()
    return normalize(tuple(a * c for a in p))


def divmod_poly(a, b):
    """Euclidean division over a field; returns (quotient, remainder)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = []
    r = list(a)
    db = degree(b)
    lead = b[-1]
    while len(r) - 1 >= db and r:
        c = r[-1] / lead
        k = len(r) - 1 - db
        q.append((k, c))
        for i in range(db + 1):
            r[k + i] = r[k + i] - c * b[i]
        del r[-1]
        while r and r[-1] == 0:
            r.pop()
    qc = [lead * 0] * (max(k for k, _ in q) + 1) if q else []
    for k, c in q:
        qc[k] = c
    return normalize(qc), normalize(r)


def monic(p):
    if not p:
        return ()
    return tuple(c / p[-1] for c in p)


def derivative(p):
    return normalize(tuple(p[i] * i for i in range(1, len(p))))


def eval_at(p, x):
    acc = None
    for c in reversed(p):
        acc = c if acc is None else acc * x + c
    if acc is None:
        return x * 0
    return acc


def power_sums(p, n):
    """The sums s_k of the k-th powers of the roots of the monic p of
    degree e, for k = 0, ..., n, by Newton's identities:
    s_k = -k p_(e-k) - sum_(i=1)^(min(k-1, e)) p_(e-i) s_(k-i), the first
    term only for k <= e."""
    e = degree(p)
    s = [Fraction(e)]
    for k in range(1, n + 1):
        acc = sum(p[e - i] * s[k - i] for i in range(1, min(k - 1, e) + 1))
        s.append(-acc - k * p[e - k] if k <= e else -acc)
    return s


# Sturm machinery (rational coefficients, on integers).

@lru_cache(maxsize=None)
def sturm_chain(p):
    """The Sturm chain of p, each member a positive integer multiple; its
    last member is a multiple of gcd(p, p')."""
    den = math.lcm(*(c.denominator for c in p))
    p = normalize(c.numerator * (den // c.denominator) for c in p)
    chain = [p, derivative(p)]
    while chain[-1]:
        r = _positive_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(neg(r))
    return tuple(c for c in chain if c)


def _positive_remainder(a, b):
    """A positive multiple of the remainder of the integer polynomial a
    by b, divided by its content: each step scales by |lead(b)|."""
    r, m = list(a), abs(b[-1])
    while len(r) >= len(b):
        c, k = r[-1] * m // b[-1], len(r) - len(b)
        r = [m * x for x in r]
        for i, y in enumerate(b):
            r[k + i] -= c * y
        r.pop()
        while r and not r[-1]:
            r.pop()
    g = math.gcd(*r)
    return tuple(x // g for x in r) if g > 1 else tuple(r)


def _sign_changes(values):
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def sturm_count(chain, a, b):
    """Number of distinct real roots in the half-open interval (a, b]."""
    va = _sign_changes([eval_at(c, a) for c in chain])
    vb = _sign_changes([eval_at(c, b) for c in chain])
    return va - vb


def root_bound(p):
    """The Cauchy bound, rounded up: all complex roots lie in |z| < bound."""
    m = max(map(abs, p[:-1]), default=0)
    return 1 - (-m // abs(p[-1]))


def count_real_roots(p):
    """Number of distinct real roots, by the Sturm count over the Cauchy
    bound of the chain's integer polynomial."""
    chain = sturm_chain(p)
    bound = root_bound(chain[0])
    return sturm_count(chain, -bound, bound)


def factor_rational(p):
    """Irreducible factorization over Q via sympy.

    Returns (constant, [(factor, multiplicity), ...]) with monic factors
    sorted by (degree, coefficients) for determinism.
    """
    import sympy

    x = sympy.Symbol("x")
    sp = sympy.Poly([sympy.Rational(c) for c in reversed(p)], x, domain="QQ")
    const, factors = sp.factor_list()
    out = []
    c = Fraction(sympy.Rational(const))
    for f, mult in factors:
        coeffs = [Fraction(sympy.Rational(a)) for a in reversed(f.all_coeffs())]
        lead = coeffs[-1]
        c *= lead**mult
        out.append((tuple(a / lead for a in coeffs), mult))
    out.sort(key=lambda fm: (degree(fm[0]), fm[0]))
    return c, out
