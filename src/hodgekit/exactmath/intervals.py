"""Rational interval and box arithmetic.

An interval is a pair (lo, hi) of Fractions with lo <= hi; a box is a
pair (real interval, imaginary interval).  All operations return
enclosures, so any quantity evaluated through them is certified to lie
in the result.  Used for sign certification at complex embeddings.
"""

from fractions import Fraction

def interval(lo, hi=None):
    if hi is None:
        hi = lo
    return (Fraction(lo), Fraction(hi))


def iv_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def iv_sub(a, b):
    return (a[0] - b[1], a[1] - b[0])


def iv_mul(a, b):
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(p), max(p))


def iv_sign(a):
    """+1, -1, or None when the interval straddles zero."""
    if a[0] > 0:
        return 1
    if a[1] < 0:
        return -1
    if a[0] == a[1] == 0:
        return 0
    return None


def iv_disjoint(a, b):
    return a[1] < b[0] or b[1] < a[0]


def box_point(re, im=0):
    return (interval(re), interval(im))


def box_add(a, b):
    return (iv_add(a[0], b[0]), iv_add(a[1], b[1]))


def box_mul(a, b):
    re = iv_sub(iv_mul(a[0], b[0]), iv_mul(a[1], b[1]))
    im = iv_add(iv_mul(a[0], b[1]), iv_mul(a[1], b[0]))
    return (re, im)


def box_disjoint(a, b):
    return iv_disjoint(a[0], b[0]) or iv_disjoint(a[1], b[1])


def poly_eval_box(coeffs, z):
    """Horner evaluation of a Fraction polynomial over a box."""
    acc = box_point(0)
    for c in reversed(coeffs):
        acc = box_add(box_mul(acc, z), box_point(c))
    return acc
