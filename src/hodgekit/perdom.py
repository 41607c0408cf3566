"""Polynomial period paths and the symbolic transversality identity
q(l(t), l'(t)) = 0 that holds on every isotropic path.  The conditions
on a single period line are `hodge.check_period_line`.
"""

from .errors import InternalError, NotIsotropicPath, ValidationError
from .exactmath import unipoly as up


class PeriodPath:
    """Polynomial curve in a quadratic space: one Fraction polynomial per
    coordinate, constant term first."""

    __slots__ = ("space", "coords")

    def __init__(self, space, coords):
        if len(coords) != space.dim:
            raise ValidationError("path has wrong number of coordinates")
        if all(not c for c in coords):
            raise ValidationError("path is identically zero")
        self.space = space
        self.coords = coords


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
