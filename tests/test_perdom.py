"""Tests for period-domain membership (the period-line conditions of
`hodge.check_period_line`) and the transversality identity on
polynomial period paths."""

from fractions import Fraction
import random

import pytest

from hodgekit.errors import (IsotropyFails, NotIsotropicPath, PositivityFails,
                             ValidationError)
from hodgekit.exactmath import Matrix, nf_create, nf_embeddings
from hodgekit.exactmath import unipoly as up
from hodgekit.hodge import check_period_line
from hodgekit.perdom import PeriodPath, _poly_form, griffiths_check
from hodgekit.qforms import QuadraticSpace

F = Fraction


def qspace(rows):
    return QuadraticSpace(Matrix([[F(c) for c in r] for r in rows]))


LORENTZ3 = qspace([[1, 0, 0], [0, 1, 0], [0, 0, -1]])


def make_isotropic_path(space, base, w1, w2):
    """Polynomial path on the quadric through an isotropic base vector:
    the chord construction l(t) = -q(m(t), m(t)) * base
    + 2 q(base, m(t)) * m(t) with m(t) = t*w1 + (1-t)*w2 is isotropic by
    construction.  Returns None when the data degenerates to the zero
    path."""
    if space.form(base, base) != 0:
        raise ValidationError("base vector must be isotropic")
    one = (F(0), F(1))     # t
    onem = (F(1), F(-1))   # 1 - t
    m = [up.add(up.scale(one, a), up.scale(onem, b)) for a, b in zip(w1, w2)]
    qmm = _poly_form(space, m, m)
    qbm = _poly_form(space, [up.normalize((c,)) for c in base], m)
    coords = []
    for i in range(space.dim):
        term = up.scale(qmm, -base[i])
        coords.append(up.add(term, up.scale(up.mul(qbm, m[i]), 2)))
    if all(not c for c in coords):
        return None
    return PeriodPath(space, tuple(coords))


def test_membership_gaussian():
    field = nf_create([1, 0, 1])
    emb = nf_embeddings(field)[1]
    sp = qspace([[1, 0], [0, 1]])
    check_period_line(sp, emb, (field.element([1, 0]), field.element([0, 1])))


def test_membership_fails_for_real_isotropic():
    field = nf_create([1, 0, 1])
    emb = nf_embeddings(field)[1]
    with pytest.raises(PositivityFails) as exc:
        check_period_line(LORENTZ3, emb,
                          (field.one(), field.zero(), field.one()))
    assert exc.value.witness == 0


def test_membership_fails_for_nonisotropic():
    field = nf_create([1, 0, 1])
    emb = nf_embeddings(field)[1]
    with pytest.raises(IsotropyFails) as exc:
        check_period_line(LORENTZ3, emb,
                          (field.gen(), field.zero(), field.zero()))
    assert exc.value.witness == -field.one()


def test_membership_quartic():
    field = nf_create([9, 0, -2, 0, 1])
    emb = nf_embeddings(field)[3]
    sqrt2 = field.element([0, F(5, 6), 0, F(-1, 6)])
    i_el = field.element([0, F(1, 6), 0, F(1, 6)])
    check_period_line(LORENTZ3, emb, (sqrt2, i_el, field.one()))


def test_membership_takes_one_gram_product(monkeypatch):
    # q(omega, omega) and q(omega, conj omega) both pair with G omega
    field = nf_create([9, 0, -2, 0, 1])
    emb = nf_embeddings(field)[3]
    sqrt2 = field.element([0, F(5, 6), 0, F(-1, 6)])
    i_el = field.element([0, F(1, 6), 0, F(1, 6)])
    products = []

    def vec(m, v, real=Matrix.vec):
        products.append(m)
        return real(m, v)

    monkeypatch.setattr(Matrix, "vec", vec)
    check_period_line(LORENTZ3, emb, (sqrt2, i_el, field.one()))
    assert products == [LORENTZ3.gram]


def test_membership_scaling_invariance():
    field = nf_create([9, 0, -2, 0, 1])
    emb = nf_embeddings(field)[3]
    sqrt2 = field.element([0, F(5, 6), 0, F(-1, 6)])
    i_el = field.element([0, F(1, 6), 0, F(1, 6)])
    vec = (sqrt2, i_el, field.one())
    for scale in (field.from_rational(F(7, 3)), field.gen(),
                  field.gen() * field.gen() + 1):
        scaled = tuple(scale * v for v in vec)
        check_period_line(LORENTZ3, emb, scaled)


def test_griffiths_circle():
    path = PeriodPath(LORENTZ3, ((F(1), F(0), F(-1)), (F(0), F(2)),
                                 (F(1), F(0), F(1))))
    assert griffiths_check(path)


def test_griffiths_constant_path():
    path = PeriodPath(LORENTZ3, ((F(1),), (F(0),), (F(1),)))
    assert griffiths_check(path)


def test_griffiths_rejects_nonisotropic():
    path = PeriodPath(LORENTZ3, ((F(1),), (F(0), F(1)), ()))
    with pytest.raises(NotIsotropicPath):
        griffiths_check(path)


def test_make_isotropic_path_randomized():
    rng = random.Random(20240809)
    base = (F(1), F(0), F(1))
    count = 0
    while count < 50:
        w1 = tuple(F(rng.randint(-5, 5)) for _ in range(3))
        w2 = tuple(F(rng.randint(-5, 5)) for _ in range(3))
        path = make_isotropic_path(LORENTZ3, base, w1, w2)
        if path is None:
            continue
        assert griffiths_check(path)
        count += 1


def test_make_isotropic_path_requires_isotropic_base():
    with pytest.raises(ValidationError):
        make_isotropic_path(LORENTZ3, (F(1), F(0), F(0)), (F(0),) * 3,
                            (F(1),) * 3)


def test_period_path_rejects_zero():
    with pytest.raises(ValidationError, match="identically zero"):
        PeriodPath(LORENTZ3, ((), (), ()))
    with pytest.raises(ValidationError, match="wrong number of coordinates"):
        PeriodPath(LORENTZ3, ((F(1),), (F(0),)))
