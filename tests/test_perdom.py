"""Tests for period-domain membership, the transversality identity and
the essential-dimension bounds."""

from fractions import Fraction
import random

import pytest

from hodgekit.errors import NotIsotropicPath, RankTooSmall, ValidationError
from hodgekit.exactmath import Matrix, nf_create, nf_embeddings
from hodgekit.hodge import MTDescriptor
from hodgekit.perdom import (Membership, PeriodPath, check_family,
                             essential_dim_bound, griffiths_check,
                             make_isotropic_path, orbit_dimension,
                             per_membership)
from hodgekit.qforms import QuadraticSpace

F = Fraction


def qspace(rows):
    return QuadraticSpace(Matrix([[F(c) for c in r] for r in rows]))


LORENTZ3 = qspace([[1, 0, 0], [0, 1, 0], [0, 0, -1]])


def test_membership_gaussian():
    field = nf_create([1, 0, 1])
    emb = nf_embeddings(field)[1]
    sp = qspace([[1, 0], [0, 1]])
    res = per_membership(sp, field, emb, (field.element([1, 0]),
                                          field.element([0, 1])))
    assert res.member


def test_membership_fails_for_real_isotropic():
    field = nf_create([1, 0, 1])
    emb = nf_embeddings(field)[1]
    res = per_membership(LORENTZ3, field, emb,
                         (field.one(), field.zero(), field.one()))
    assert not res.member
    assert res.failure_reason == "PositivityFails"
    assert res.witness == 0


def test_membership_fails_for_nonisotropic():
    field = nf_create([1, 0, 1])
    emb = nf_embeddings(field)[1]
    res = per_membership(LORENTZ3, field, emb,
                         (field.gen(), field.zero(), field.zero()))
    assert res == Membership(False, "IsotropyFails", -field.one())


def test_membership_quartic():
    field = nf_create([9, 0, -2, 0, 1])
    emb = nf_embeddings(field)[3]
    sqrt2 = field.element([0, F(5, 6), 0, F(-1, 6)])
    i_el = field.element([0, F(1, 6), 0, F(1, 6)])
    res = per_membership(LORENTZ3, field, emb, (sqrt2, i_el, field.one()))
    assert res.member


def test_membership_scaling_invariance():
    field = nf_create([9, 0, -2, 0, 1])
    emb = nf_embeddings(field)[3]
    sqrt2 = field.element([0, F(5, 6), 0, F(-1, 6)])
    i_el = field.element([0, F(1, 6), 0, F(1, 6)])
    vec = (sqrt2, i_el, field.one())
    for scale in (field.from_rational(F(7, 3)), field.gen(),
                  field.gen() ** 2 + 1):
        scaled = tuple(scale * v for v in vec)
        assert per_membership(LORENTZ3, field, emb, scaled).member


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
    with pytest.raises(ValidationError):
        PeriodPath(LORENTZ3, ((), (), ()))
    with pytest.raises(ValidationError):
        PeriodPath(LORENTZ3, ((F(1),), (F(0),)))


def test_essential_dim_bounds():
    assert essential_dim_bound(22) == 20
    assert essential_dim_bound(2) == 0
    assert check_family(22, 20)
    assert check_family(2, 0)
    assert not check_family(3, 0)


def test_orbit_dimension():
    assert orbit_dimension(MTDescriptor("SO_E", 22)) == 20
    assert orbit_dimension(MTDescriptor("U_E", 2)) == 0
    assert orbit_dimension(MTDescriptor("SO_E", 3)) == 1
    with pytest.raises(RankTooSmall):
        orbit_dimension(MTDescriptor("U_E", 1))


def test_bounds_agree():
    for n_e in range(2, 12):
        assert essential_dim_bound(n_e) == orbit_dimension(
            MTDescriptor("SO_E", n_e))
