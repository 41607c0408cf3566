"""Reference k-symplectic verification on the symbolic Pfaffian: the
generic combination sum t_i Psi_i with polynomial entries, its Pfaffian
by memoized expansion along the first row, and the quadric power test on
its coefficients, with the polynomial calculus they need (scaling,
partial derivatives, evaluation).

hodgekit never expands the Pfaffian: it knows p by its values on the
principal lattice of degree 2n.  These are the oracles that path is
checked against.
"""

from fractions import Fraction
from itertools import product

from hodgekit.errors import (DegenerateQuadric, NotGenericallySymplectic,
                             NotQuadricPower, WrongRankOnQuadric)
from hodgekit.exactmath import Matrix, rank
from hodgekit.exactmath.mpoly import (mp_add, mp_items_grlex, mp_mul, mp_neg,
                                      mp_pow)
from hodgekit.ksympl import (KSymplecticReport, _fail, _is_square,
                             _quadric_point, _rank_at)


def mp_scale(p, c):
    if c == 0:
        return {}
    return {k: v * c for k, v in p.items()}


def mp_diff(p, i):
    """Partial derivative in the i-th variable."""
    return {k[:i] + (k[i] - 1,) + k[i + 1:]: c * k[i]
            for k, c in p.items() if k[i]}


def mp_eval(p, point):
    """Evaluate at a point given as a scalar sequence."""
    acc = Fraction(0)
    for k, c in p.items():
        term = c
        for e, x in zip(k, point):
            term = term * x ** e
        acc = acc + term
    return acc


def generic(psis):
    """The entries of sum t_a Psi_a as linear polynomials in t."""
    k, n = len(psis), psis[0].rows
    return [[{tuple(int(a == b) for b in range(k)): m.entries[i][j]
              for a, m in enumerate(psis) if m.entries[i][j]}
             for j in range(n)] for i in range(n)]


def pfaffian(entries):
    """The Pfaffian of an antisymmetric matrix of polynomials, by
    recursive expansion along the first row over memoized minors."""
    n = len(entries)
    assert n % 2 == 0
    nvars = next((len(e) for row in entries for p in row for e in p), 0)
    memo = {}

    def pf(idx):
        if not idx:
            return {(0,) * nvars: Fraction(1)}
        if idx not in memo:
            first, rest = idx[0], idx[1:]
            acc = {}
            for pos, j in enumerate(rest):
                a = entries[first][j]
                if a:
                    term = mp_mul(a, pf(tuple(x for x in rest if x != j)))
                    acc = mp_add(acc, mp_neg(term) if pos % 2 else term)
            memo[idx] = acc
        return memo[idx]

    return pf(tuple(range(n)))


def gram_candidate(p, n, v):
    """n p H - (n - 1) g g^T at the point v, for the gradient g and the
    Hessian H of p."""
    k = len(v)
    grad = [mp_diff(p, i) for i in range(k)]
    g = [mp_eval(d, v) for d in grad]
    pv = mp_eval(p, v)
    return Matrix(tuple(tuple(n * pv * mp_eval(mp_diff(d, j), v)
                              - (n - 1) * g[i] * g[j] for j in range(k))
                        for i, d in enumerate(grad)))


def quadric_root(p, n, k):
    """(qmat, c, r) with p = c * q**n, read off p's coefficients: q from
    gram_candidate at the first nonzero point of the grid, scaled to
    grlex-leading coefficient 1, counts only if c * q**n is p term by
    term; None when p is no such power of an irreducible quadric."""
    # p has degree at most 2n in each variable, so it is nonzero at
    # some point of {0..2n}^k
    v = next(v for v in product(range(2 * n + 1), repeat=k) if mp_eval(p, v))
    gram = gram_candidate(p, n, v)
    r = rank(gram)
    if r <= 1:
        return None
    e = gram.entries
    q = {tuple((a == i) + (a == j) for a in range(k)): e[i][j] * (1 + (i != j))
         for i in range(k) for j in range(i, k) if e[i][j]}
    lead = mp_items_grlex(q)[0][1]
    qn = mp_pow(mp_scale(q, 1 / lead), n)
    c = p.get(mp_items_grlex(qn)[0][0])
    if c is None or mp_scale(qn, c) != p:
        return None
    if r == 2:
        minors = (e[i][i] * e[j][j] - e[i][j] ** 2
                  for i in range(k) for j in range(i + 1, k))
        if _is_square(-next(m for m in minors if m)) is not None:
            return None
    return gram * (1 / lead), c, r


def verify(cand):
    """verify_k_symplectic's report, from the symbolic Pfaffian."""
    p = pfaffian(generic(cand.psis))
    if not p:
        return _fail(NotGenericallySymplectic)
    root = quadric_root(p, cand.v_dim // 4, cand.k)
    if root is None:
        return _fail(NotQuadricPower)
    qmat, scalar, q_rank = root
    if q_rank < cand.k:
        return _fail(DegenerateQuadric)
    point, field_poly = _quadric_point(qmat)
    r = _rank_at(cand, point, field_poly)
    if r != cand.v_dim // 2:
        return _fail(WrongRankOnQuadric)
    return KSymplecticReport(True, qmat, scalar, r, point, field_poly, None)
