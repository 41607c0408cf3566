"""The K3-type period domain: membership certification, the symbolic
transversality identity for polynomial period paths, and the essential
dimension bounds tying family dimension to the rank of the
transcendental lattice over its endomorphism field.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (InternalError, IsotropyFails, NotIsotropicPath,
                     PositivityFails, RankTooSmall, ValidationError)
from .exactmath import unipoly as up
from .hodge import check_period_line
from .qforms import QuadraticSpace


@dataclass(frozen=True)
class PeriodPath:
    """Polynomial curve in a quadratic space: one Fraction polynomial per
    coordinate, constant term first."""

    space: QuadraticSpace
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.space.dim:
            raise ValidationError("path has wrong number of coordinates")
        if all(not c for c in self.coords):
            raise ValidationError("path is identically zero")


@dataclass(frozen=True)
class Membership:
    member: bool
    failure_reason: str | None
    witness: object | None


def per_membership(space, field, embedding, vec, precision_start=64):
    """Period-domain membership: the period-line conditions of
    `hodge.check_period_line`, with no signature requirement."""
    vec = tuple(vec)
    if len(vec) != space.dim:
        raise ValidationError("vector length does not match the space")
    if all(v.is_zero() for v in vec):
        raise ValidationError("vector must be nonzero")
    try:
        check_period_line(space, embedding, vec, precision_start)
    except (IsotropyFails, PositivityFails) as exc:
        return Membership(False, type(exc).__name__, exc.witness)
    return Membership(True, None, None)


def griffiths_check(path):
    """The derivative identity behind transversality: for an isotropic
    polynomial path, q(l(t), l'(t)) vanishes identically.  Returns True;
    a nonzero result is an arithmetic bug and fails loudly."""
    q = _poly_form(path.space, path.coords, path.coords)
    if q != ():
        raise NotIsotropicPath("q(l(t), l(t)) is not identically zero")
    deriv = tuple(up.derivative(c) for c in path.coords)
    cross = _poly_form(path.space, path.coords, deriv)
    if cross != ():
        raise InternalError("q(l, l') nonzero on an isotropic path")
    return True


def _poly_form(space, u, v):
    acc = ()
    g = space.gram.entries
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if g[i][j] == 0:
                continue
            acc = up.add(acc, up.scale(up.mul(ui, vj), g[i][j]))
    return acc


def make_isotropic_path(space, base, w1, w2):
    """Polynomial path on the quadric through an isotropic base vector:
    the chord construction l(t) = -q(m(t), m(t)) * base
    + 2 q(base, m(t)) * m(t) with m(t) = t*w1 + (1-t)*w2 is isotropic by
    construction.  Returns None when the data degenerates to the zero
    path."""
    if not space.is_isotropic(base):
        raise ValidationError("base vector must be isotropic")
    one = (Fraction(0), Fraction(1))     # t
    onem = (Fraction(1), Fraction(-1))   # 1 - t
    m = [up.add(up.scale(one, a), up.scale(onem, b)) for a, b in zip(w1, w2)]
    qmm = _poly_form(space, m, m)
    qbm = _poly_form(space, [up.constant(c) for c in base], m)
    coords = []
    for i in range(space.dim):
        term = up.scale(qmm, -base[i])
        coords.append(up.add(term, up.scale(up.mul(qbm, m[i]), 2)))
    if all(not c for c in coords):
        return None
    return PeriodPath(space, tuple(coords))


def essential_dim_bound(n_e):
    """Largest essential family dimension compatible with rank n_e of the
    lattice over its endomorphism field: n_e - 2."""
    if n_e < 1:
        raise ValidationError("rank must be at least 1")
    return n_e - 2


def check_family(n_e, d):
    """Whether rank n_e can occur for a manifold generic in a family of
    essential dimension d: n_e <= d + 2."""
    if n_e < 1 or d < 0:
        raise ValidationError("need n_e >= 1 and d >= 0")
    return n_e <= d + 2


def orbit_dimension(mt):
    """Complex dimension of the period-domain orbit of the Mumford-Tate
    group: n_e - 2 for both the orthogonal and unitary families."""
    if mt.rank < 2:
        raise RankTooSmall("orbit dimension needs rank at least 2")
    return mt.rank - 2
