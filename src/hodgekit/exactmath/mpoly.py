"""Multivariate polynomials as mappings from exponent tuples to scalars.

The scalar type is any exact field (Fraction or FieldElement); zero
coefficients are never stored.  Iteration order, where it matters, is
graded lexicographic (total degree first, then lex on the exponents).
"""

from fractions import Fraction


def mp_from_vector(v):
    """Linear form with the given coordinate vector."""
    n = len(v)
    out = {}
    for i, c in enumerate(v):
        if c != 0:
            exp = [0] * n
            exp[i] = 1
            out[tuple(exp)] = c
    return out


def mp_add(p, q):
    out = dict(p)
    for k, c in q.items():
        s = out.get(k, 0) + c
        if s == 0:
            out.pop(k, None)
        else:
            out[k] = s
    return out


def mp_neg(p):
    return {k: -c for k, c in p.items()}


def mp_sub(p, q):
    return mp_add(p, mp_neg(q))


def mp_mul(p, q):
    out = {}
    for ka, ca in p.items():
        for kb, cb in q.items():
            k = tuple(a + b for a, b in zip(ka, kb))
            s = out.get(k, 0) + ca * cb
            if s == 0:
                out.pop(k, None)
            else:
                out[k] = s
    return out


def mp_pow(p, n):
    if n == 0:
        ka = next(iter(p), None)
        nvars = len(ka) if ka is not None else 0
        return {(0,) * nvars: Fraction(1)}
    result = None
    base = p
    while n:
        if n & 1:
            result = base if result is None else mp_mul(result, base)
        n >>= 1
        if n:
            base = mp_mul(base, base)
    return result


def grlex_key(exponents):
    return (sum(exponents), tuple(-e for e in exponents))


def mp_items_grlex(p):
    """Items sorted in graded lexicographic order."""
    return sorted(p.items(), key=lambda kv: grlex_key(kv[0]))
