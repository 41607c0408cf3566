"""Integer relations by lattice reduction.

relation_guess guesses the conjugation automorphism of a number field
from one complex embedding: conj(sigma(gen)) as a rational combination
of the powers of sigma(gen), read off an LLL-reduced basis of an integer
lattice built from fixed-point values.  lll_reduce is the integral LLL
algorithm, exact on Python integers.  numberfield imports this module
only when its interpolation guess fails, so most processes never load it.
"""

from fractions import Fraction

from ..errors import InternalError
from .rootiso import digits_bits


def relation_guess(emb, digits):
    """Rational guess of tau(gen) from the chosen embedding alone: the
    integer relation d conj(a) = sum_k n_k a**k for a = sigma(gen), read
    from the first vector of an LLL-reduced basis (lll_reduce).  The
    lattice is spanned by the unit vectors of Z**(e+1), each extended by
    the real and imaginary parts of a**k, k < e, or of -conj(a), in the
    fixed point 2**bits of the given decimal precision.  When conj(a)
    lies in Q(a) the relation exists, whether or not conjugation
    commutes with the other embeddings, and is unique up to scale, so it
    is the shortest vector once the precision suffices.  None when that
    vector has d = 0."""
    field = emb.parent
    e, bits = field.degree, digits_bits(digits)
    w = 2 * bits
    x, y, _, den = emb.eval_box(field.gen(), Fraction(1, 2**w))
    ax, ay = (x << w) // den, (y << w) // den
    tails, px, py = [], 1 << w, 0
    for _ in range(e):
        tails.append([px >> bits, py >> bits])
        px, py = (px * ax - py * ay) >> w, (px * ay + py * ax) >> w
    tails.append([-ax >> bits, ay >> bits])
    short = lll_reduce([[int(i == k) for i in range(e + 1)] + tail
                         for k, tail in enumerate(tails)])[0]
    if short[e] == 0:
        return None
    return field.element([Fraction(n, short[e]) for n in short[:e]])


def lll_reduce(basis):
    """An LLL-reduced basis (delta = 3/4) of the lattice spanned by the
    linearly independent integer rows, in integers: Cohen's integral
    LLL (A Course in Computational Algebraic Number Theory, 2.6.7).
    d[i] is the Gram determinant of the first i rows and lam[k][j] the
    integer d[j + 1] mu_kj of the Gram-Schmidt coefficients."""
    b = [list(row) for row in basis]
    n = len(b)
    d = [1, sum(c * c for c in b[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [u - q * v for u, v in zip(b[k], b[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        m = lam[k][k - 1]
        big = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
            lam[i][k - 1] = (big * t + m * lam[i][k]) // d[k + 1]
        d[k] = big

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = sum(p * q for p, q in zip(b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise InternalError("LLL basis is linearly dependent")
                else:
                    d[k + 1] = u
        reduce(k, k - 1)
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k]**2 - 4 * lam[k][k - 1]**2:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return b
