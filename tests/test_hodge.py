"""Tests for period validation, transcendental lattices, endomorphism
fields and Hodge tensor classes."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hodgekit import hodge, qforms
from hodgekit.cli import build_period, load_problem_file, main
from hodgekit.errors import (Degenerate, InternalError, IsotropyFails,
                             PositivityFails, WrongSignature)
from hodgekit.exactmath import (FieldElement, Matrix, certified_sign,
                                inverse, nf_create, nf_embeddings,
                                solve_linear)
from hodgekit.exactmath import linalg, numberfield
from hodgekit.exactmath.linalg import row_space
from hodgekit.hodge import (CM, SO_E, TOTALLY_REAL, U_E, endomorphism_field,
                            hodge_classes_tensor_square,
                            transcendental_lattice, validate_period)
from hodgekit.qforms import QuadraticSpace
from test_exactmath import (conjugate_element, field_trace, power,
                            shifted_poly)
import reference_elimination as reference

F = Fraction
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def qspace(rows):
    return QuadraticSpace(Matrix([[F(c) for c in r] for r in rows]))


def gaussian_period():
    field = nf_create([1, 0, 1])
    emb = nf_embeddings(field)[1]
    sp = qspace([[1, 0], [0, 1]])
    omega = (field.element([1, 0]), field.element([0, 1]))
    return validate_period(sp, field, emb, omega)


def sqrt2i_period(padded=False):
    field = nf_create([9, 0, -2, 0, 1])
    emb = nf_embeddings(field)[3]  # theta = sqrt2 + i
    sqrt2 = [0, F(5, 6), 0, F(-1, 6)]
    i_el = [0, F(1, 6), 0, F(1, 6)]
    if padded:
        sp = qspace([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
        omega = (field.element(sqrt2), field.element(i_el), field.one(),
                 field.zero())
    else:
        sp = qspace([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
        omega = (field.element(sqrt2), field.element(i_el), field.one())
    return validate_period(sp, field, emb, omega)


def quartic_cm_period():
    """Full 4-dimensional lattice over Q(sqrt2, i): two hyperbolic blocks
    carrying the trace transfer of sqrt2 * (standard form on E^2); the
    endomorphism field is the whole quartic field, a CM extension of
    Q(sqrt2)."""
    field = nf_create([9, 0, -2, 0, 1])
    emb = nf_embeddings(field)[3]
    th = field.gen()
    sqrt2 = (5 * th - power(th, 3)) / 6
    i_el = (power(th, 3) + th) / 6
    sp = qspace([[0, 4, 0, 0], [4, 0, 0, 0], [0, 0, 0, 4], [0, 0, 4, 0]])
    omega = (field.one(), sqrt2 / 2, i_el, i_el * sqrt2 / 2)
    return validate_period(sp, field, emb, omega)


def test_validate_period_gaussian():
    p = gaussian_period()
    assert p.dim == 2


def test_validate_period_quartic():
    p = sqrt2i_period()
    assert p.dim == 3


def test_validate_period_rejects_rational_isotropic():
    field = nf_create([1, 0, 1])
    emb = nf_embeddings(field)[1]
    sp = qspace([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    omega = (field.one(), field.zero(), field.one())
    with pytest.raises(PositivityFails):
        validate_period(sp, field, emb, omega)


def test_validate_period_rejects_nonisotropic():
    field = nf_create([1, 0, 1])
    emb = nf_embeddings(field)[1]
    sp = qspace([[1, 0], [0, 1]])
    omega = (field.one(), field.zero())
    with pytest.raises(IsotropyFails) as err:
        validate_period(sp, field, emb, omega)
    assert err.value.witness == field.one()


def test_validate_period_rejects_wrong_signature():
    field = nf_create([1, 0, 1])
    emb = nf_embeddings(field)[1]
    sp = qspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    omega = (field.one(), field.gen(), field.zero())
    with pytest.raises(WrongSignature):
        validate_period(sp, field, emb, omega)


def test_validate_period_rejects_dimension_one():
    # a space of dimension 1 has no signature (2, m - 2) at all
    field = nf_create([1, 0, 1])
    emb = nf_embeddings(field)[1]
    with pytest.raises(WrongSignature) as err:
        validate_period(qspace([[1]]), field, emb, (field.one(),))
    assert str(err.value) == ("dim V = 1, but signature (2, m - 2) "
                              "needs dim V >= 2")


def test_transcendental_lattice_gaussian():
    h = transcendental_lattice(gaussian_period())
    assert h.dim_t == 2
    assert h.alg.rows == 0
    assert h.trans == Matrix.identity(2)


def test_transcendental_lattice_quartic():
    h = transcendental_lattice(sqrt2i_period())
    assert h.dim_t == 3
    assert h.alg.rows == 0


def test_transcendental_lattice_padded_block():
    h = transcendental_lattice(sqrt2i_period(padded=True))
    assert h.dim_t == 3
    assert h.alg.entries == ((F(0), F(0), F(0), F(1)),)


def test_transcendental_signature_is_a_self_check(monkeypatch):
    # after validate_period q on T has signature (2, t - 2); a wrong one
    # is an internal fault (exit 3), not a rejection of the input
    period = sqrt2i_period()
    monkeypatch.setattr(hodge, "signature", lambda space: (1, space.dim - 1))
    with pytest.raises(InternalError, match="has signature \\(1, 2\\)"):
        transcendental_lattice(period)


def test_lattice_independent_of_power_basis():
    # re-present the quartic period over theta' = 2*theta: same complex
    # structure, so the same rational lattice must come out
    h1 = transcendental_lattice(sqrt2i_period())
    field2 = nf_create([144, 0, -8, 0, 1])  # minimal polynomial of 2*theta
    emb2 = nf_embeddings(field2)[3]
    # sqrt2 = (5 t - t^3/4)/12, i = (t + t^3/4)/12 for t = 2*theta
    sqrt2 = [0, F(5, 12), 0, F(-1, 48)]
    i_el = [0, F(1, 12), 0, F(1, 48)]
    sp = qspace([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    omega = (field2.element(sqrt2), field2.element(i_el), field2.one())
    h2 = transcendental_lattice(validate_period(sp, field2, emb2, omega))
    assert h1.trans == h2.trans


def test_endomorphism_field_gaussian():
    h = transcendental_lattice(gaussian_period())
    ef = endomorphism_field(h)
    assert ef.e == 2
    assert ef.classification == CM
    assert ef.mt.family == U_E and ef.mt.rank == 1
    assert ef.primitive_minpoly == (F(1), F(0), F(1))
    # the canonical basis rows have leading entry 1, so this sign of the
    # rotation is the one in the basis
    rot = Matrix(((F(0), F(1)), (F(-1), F(0))))
    assert rot in ef.basis
    # E_0 is Q: one fixed dimension
    assert len(ef.fixed_subalgebra) == 1


def test_endomorphism_field_identity_always_present():
    for make in (gaussian_period, sqrt2i_period):
        h = transcendental_lattice(make())
        ef = endomorphism_field(h)
        cols = Matrix(tuple(zip(*(tuple(c for row in b.entries for c in row)
                                  for b in ef.basis))))
        flat_id = tuple(c for row in Matrix.identity(h.dim_t).entries
                        for c in row)
        assert solve_linear(cols, flat_id).particular is not None


def test_closure_is_certified_on_the_primitive_element():
    # in Q(z), z = zeta_16, z^2 has degree 4: it generates the field
    # span{1, z^2, z^4, z^6}, and it is also the primitive element found
    # for span{1, z, z^2, z^4}, which does not contain z^6
    z = nf_create([1, 0, 0, 0, 0, 0, 0, 0, 1]).gen()
    field_span = tuple(power(z, k) for k in (0, 2, 4, 6))
    assert hodge._primitive_element(field_span) == (
        (0, 1, 0, 0), (F(1), F(0), F(0), F(0), F(1)))
    with pytest.raises(InternalError, match="not closed under product"):
        hodge._primitive_element(tuple(power(z, k) for k in (0, 1, 2, 4)))


def test_primitive_element_skips_candidates_of_lower_degree():
    # in Q(z), z = zeta_8, the basis 1, i = z^2, sqrt2 = z - z^3 and
    # i sqrt2 = z + z^3 has no element of degree 4, so p is a combination
    z = nf_create([1, 0, 0, 0, 1]).gen()
    lams = (power(z, 0), power(z, 2), z - power(z, 3), z + power(z, 3))
    coeffs, minpoly = hodge._primitive_element(lams)
    assert sum(map(bool, coeffs)) > 1 and len(minpoly) == 5
    p = sum((c * lam for c, lam in zip(coeffs, lams)), z * 0)
    assert sum((c * power(p, k) for k, c in enumerate(minpoly)), z * 0) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_integer_combination_is_the_fraction_sum(k, n, data):
    rational = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    cols = [data.draw(st.lists(rational, min_size=k, max_size=k))
            for _ in range(n)]
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=k, max_size=k))
    den = data.draw(st.integers(1, 6))
    num, d = linalg._combine(Matrix(cols), (coeffs, den))
    expected = [sum((F(c, den) * row[j] for j, c in enumerate(coeffs)), F(0))
                for row in cols]
    assert [F(x, d) for x in num] == expected


def test_classify_reads_and_reports_on_integers(capsys):
    # the reader, the combinations of E, the closure certificate and the
    # report keep integer rows; 2982 Fractions were built here before
    calls = []
    new = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        calls.append(cls)
        return new.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        code = main(["classify", str(CORPUS / "cm_d8_basis_period.json"),
                     "--json"])
    finally:
        Fraction.__new__ = new
    assert code == 0 and json.loads(capsys.readouterr().out)["status"] == "ok"
    assert 0 < len(calls) < 600


def test_endomorphism_field_quartic_totally_real():
    h = transcendental_lattice(sqrt2i_period())
    ef = endomorphism_field(h)
    assert ef.e == 1
    assert ef.classification == TOTALLY_REAL
    assert ef.mt.family == SO_E and ef.mt.rank == 3
    assert len(ef.fixed_subalgebra) == 0
    assert ef.primitive_minpoly == (F(-1), F(1))


def test_endomorphism_field_quartic_cm():
    h = transcendental_lattice(quartic_cm_period())
    assert h.dim_t == 4
    ef = endomorphism_field(h)
    assert ef.e == 4
    assert ef.classification == CM
    assert ef.mt.family == U_E and ef.mt.rank == 1
    # E_0 = Q(sqrt2) has degree 2 = e/2
    assert len(ef.fixed_subalgebra) == 2
    assert len(ef.primitive_minpoly) - 1 == 4


def test_endomorphism_algebra_axioms():
    for make in (gaussian_period, sqrt2i_period, quartic_cm_period):
        h = transcendental_lattice(make())
        ef = endomorphism_field(h)
        gram_t = Matrix(tuple(tuple(h.space.form(u, v) for v in h.trans.entries)
                              for u in h.trans.entries))
        ginv = inverse(gram_t)

        cols = Matrix(tuple(zip(*(_flat(b) for b in ef.basis))))

        def star(m):
            return ginv * m.transpose() * gram_t

        for a in ef.basis:
            for b in ef.basis:
                assert a * b == b * a
                assert star(a * b) == star(b) * star(a)
            assert star(star(a)) == a
            assert solve_linear(cols, _flat(star(a))).particular is not None
        assert (ef.classification == TOTALLY_REAL) == all(
            star(a) == a for a in ef.basis)
        embs = nf_embeddings(ef.field)
        if ef.classification == TOTALLY_REAL:
            assert all(s.is_real for s in embs)
        else:
            assert all(not s.is_real for s in embs)


def incompatible_quartic_period():
    """The quartic CM period with q changed by a form that still kills
    omega but is not a trace form: every lambda in F keeps the period
    line (t = e_F) and tau maps F to itself, yet only Q(sqrt(-2)) in F
    keeps T^{1,1}, so E is that quadratic field, not F."""
    p = quartic_cm_period()
    sp = qspace([[1, 4, 0, 0], [4, 0, 0, 0], [0, 0, 0, 4], [0, 0, 4, 2]])
    return validate_period(sp, p.field, p.embedding, p.omega)


def test_adjoint_closure_is_certified():
    # known answer: E is cut out of the line stabilizer L = F by the
    # Hodge condition, closed under the adjoint, and agrees with the
    # frame oracle's classes
    h = transcendental_lattice(incompatible_quartic_period())
    assert h.dim_t == 4
    ef = endomorphism_field(h)
    assert (ef.e, ef.classification) == (2, CM)
    assert len(ef.primitive_minpoly) == 3
    assert all(not s.is_real for s in nf_embeddings(ef.field))
    assert ef.mt.family == U_E and ef.mt.rank == 2
    assert len(ef.fixed_subalgebra) == 1
    classes = hodge_classes_tensor_square(h)
    assert classes == oracle_hodge_classes(h)
    gram_t = _restricted_gram(h)
    assert _span(c * gram_t for c in classes) == _span(ef.basis)
    ginv = inverse(gram_t)
    assert _span(ginv * a.transpose() * gram_t for a in ef.basis) == \
        _span(ef.basis)


def _span(mats):
    return row_space(Matrix(tuple(_flat(m) for m in mats)))


def test_totally_real_reads_every_eigenvalue():
    # the quartic CM period under a change of basis whose last canonical
    # row of E lies in E_0 = Q(sqrt2): a test of tau on that row alone
    # would read E as totally real
    base = quartic_cm_period()
    p = Matrix([[F(c) for c in r] for r in ((1, 0, 0, 0), (0, 0, 0, 1),
                                            (0, 0, 1, -1), (0, -1, 0, 1))])
    moved = validate_period(QuadraticSpace(p.transpose() * base.space.gram * p),
                            base.field, base.embedding,
                            inverse(p).vec(base.omega))
    h = transcendental_lattice(moved)
    _, lams, conj = h.endomorphisms
    assert conj[-1] == lams[-1] and conj != lams
    ef = endomorphism_field(h)
    assert (ef.e, ef.classification, len(ef.fixed_subalgebra)) == (4, CM, 2)
    assert ef.mt.family == U_E and ef.mt.rank == 1


def test_character_basis_computed_once(monkeypatch):
    calls = []
    real = hodge._character_basis
    monkeypatch.setattr(hodge, "_character_basis",
                        lambda h: calls.append(h) or real(h))
    h = transcendental_lattice(quartic_cm_period())
    endomorphism_field(h)
    hodge_classes_tensor_square(h)
    endomorphism_field(h)
    assert len(calls) == 1


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def _restrict_gram(space, basis):
    """Gram matrix B G B^T of q on the row span of the basis B, by matrix
    products: the reference for the Gram matrix of T that
    transcendental_lattice forms from matrix-vector products."""
    return basis * space.gram * basis.transpose()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restrict_gram_is_the_pairwise_form(data):
    m = data.draw(st.integers(1, 5))
    gram = [[F(0)] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            gram[i][j] = gram[j][i] = data.draw(rationals)
    try:
        space = QuadraticSpace(Matrix(gram))
    except Degenerate:
        assume(False)
    t = data.draw(st.integers(1, m + 1))
    basis = Matrix(tuple(tuple(data.draw(rationals) for _ in range(m))
                         for _ in range(t)))
    rows = basis.entries
    bg, gram_t = qforms.lowered(space.gram, basis)
    assert bg == basis * space.gram
    assert gram_t == _restrict_gram(space, basis) == Matrix(
        tuple(tuple(space.form(u, v) for v in rows) for u in rows))


def _line_stabilizer_dim(h):
    """dim L by the generic solver: lambda keeps the line iff
    N M_lambda Omega = 0 for N = ker(Omega^T), a linear system in the e_F
    coordinates of lambda, one column N M_(x^i) Omega per power x^i."""
    field = h.period.field
    gen, multiples = field.gen(), [h.omega_t]
    for _ in range(1, field.degree):
        multiples.append(tuple(v * gen for v in multiples[-1]))
    shifted = [Matrix(tuple(zip(*(v.coords for v in c)))) for c in multiples]
    left = reference.kernel(shifted[0].transpose())
    if not left.rows:
        return field.degree
    cols = Matrix(tuple(_flat(left * s) for s in shifted)).transpose()
    return field.degree - reference.rank(cols)


def test_character_certification_uses_the_unsolved_rows(monkeypatch):
    # two eliminations: [S_0 | S_1 | ...] gives the candidate phi^T = X_i
    # of each power x^i and the unsolved rows R_i, which the second one
    # reduces with the defects.  Every returned row is a Hodge
    # endomorphism with its eigenvalue and the eigenvalue's conjugate, and
    # e_F - dim L rows, L the line stabilizer, pivot in the R block
    calls = []

    def spy(m, real=linalg.rref):
        calls.append((m, real(m)))
        return calls[-1][1]

    _route(monkeypatch, linalg.rref, spy)     # kernel's rref included
    for name in ("sqrt2i_period.json", "totally_real_sqrt2_period.json",
                 "quartic_incompatible_period.json"):
        h = transcendental_lattice(build_period(
            load_problem_file(CORPUS / name)[1]))
        t, e_f = h.dim_t, h.period.field.degree
        calls.clear()
        flat, lams, conj = hodge._character_basis(h)
        assert len(calls) == 2
        assert calls[0][0].cols == t * e_f
        assert calls[1][0].rows == e_f
        lowered = h.gram.vec(h.omega_t)
        for phi, lam, tau in zip(
                linalg._unflatten(linalg._integer_rows(flat), t), lams, conj):
            assert phi.vec(h.omega_t) == tuple(lam * v for v in h.omega_t)
            assert phi.transpose().vec(lowered) == \
                tuple(tau * v for v in lowered)
            assert tau == conjugate_element(lam, h.period.embedding)
        # row i starts with R_i, the lower rows of block i of the first RREF
        first, width = calls[0][1][0], (e_f - t) * t
        for i, row in enumerate(calls[1][0].entries):
            assert list(row[:width]) == [first[k, j] for k in range(t, e_f)
                                         for j in range(t * i, t * (i + 1))]
        in_r = sum(p < width for p in calls[1][1][1])
        assert in_r == e_f - _line_stabilizer_dim(h)
        if name == "sqrt2i_period.json":
            assert (t, e_f, in_r, len(lams)) == (3, 4, 3, 1)
    # coordinates of rank t - 1 leave a pivot past Omega's first columns
    h.omega_t = (h.omega_t[0],) + h.omega_t[:-1]
    with pytest.raises(InternalError, match="rank"):
        hodge._character_basis(h)


def test_totally_real_sqrt2_period_at_every_embedding():
    # E = Q(sqrt 2) on T = E^3 with h = diag(sqrt2, sqrt2, -1): the four
    # embeddings with sigma(sqrt 2) = +sqrt 2 give the totally real
    # answer, the four others fail positivity
    doc = load_problem_file(CORPUS / "totally_real_sqrt2_period.json")[1]
    for index in range(8):
        doc["embedding"] = index
        if index in (0, 1, 6, 7):
            with pytest.raises(PositivityFails):
                build_period(doc)
            continue
        h = transcendental_lattice(build_period(doc))
        ef = endomorphism_field(h)
        assert (h.dim_t, ef.e, ef.classification) == (6, 2, TOTALLY_REAL)
        assert (ef.mt.family, ef.mt.rank) == (SO_E, 3)
        assert ef.primitive_minpoly == (F(-1, 2), 0, 1)
        assert len(hodge_classes_tensor_square(h)) == 2


def _period_document(period):
    return {"version": "1", "kind": "k3period",
            "gram": [[str(c) for c in r] for r in period.space.gram.entries],
            "field": [str(c) for c in period.field.defining_poly],
            "embedding": period.embedding.index,
            "omega": [[str(c) for c in v.coords] for v in period.omega]}


def _route(monkeypatch, fn, wrapper):
    """Replace every binding of fn in the loaded hodgekit modules."""
    for name, module in list(sys.modules.items()):
        if name.startswith("hodgekit"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)


def test_classify_does_each_exact_step_once(monkeypatch, tmp_path, capsys):
    # one classify of the rank-22, d = 8 CM period: each Gram matrix is
    # diagonalized once, when its space is built (V, then T), no
    # determinant is taken, and conjugation is a rational matrix product
    period = cm_rank22_period(8, F(-3, 2))   # builds the conjugation matrix
    path = tmp_path / "d8.json"
    path.write_text(json.dumps(_period_document(period)))
    building, diagonalized, dets, muls, conjugating = [], [], [], [], []

    init = QuadraticSpace.__init__

    def build(space, gram):
        building.append(space)
        try:
            init(space, gram)
        finally:
            building.pop()

    def diagonalize(gram, real=qforms.congruence_diagonal):
        diagonalized.append((gram, bool(building)))
        return real(gram)

    def det(m, real=linalg.det):
        dets.append(m)
        return real(m)

    def mul(a, b, real=FieldElement.__mul__):
        if conjugating:
            muls.append((a, b))
        return real(a, b)

    def conjugate(vec, emb, real=numberfield.conjugate_vector):
        conjugating.append(vec)
        try:
            return real(vec, emb)
        finally:
            conjugating.pop()

    monkeypatch.setattr(QuadraticSpace, "__init__", build)
    _route(monkeypatch, qforms.congruence_diagonal, diagonalize)
    _route(monkeypatch, linalg.det, det)
    _route(monkeypatch, numberfield.conjugate_vector, conjugate)
    monkeypatch.setattr(FieldElement, "__mul__", mul)
    monkeypatch.setattr(FieldElement, "__rmul__", mul)
    assert main(["classify", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    t = report["sections"]["transcendental_lattice"]["basis"]
    trans = Matrix(tuple(tuple(F(c) for c in row) for row in t))
    assert [g for g, _ in diagonalized] == [
        period.space.gram, _restrict_gram(period.space, trans)]
    assert all(inside for _, inside in diagonalized)
    assert dets == []
    assert muls == []


def test_classify_converts_the_conjugation_matrix_once(monkeypatch, tmp_path,
                                                      capsys):
    # the conjugations of one rank-22, d = 8 classify all read one integer
    # row form of tau, built with it from the integers of the powers of
    # tau(gen), and the integers of the conjugated element: no row is
    # converted from Fractions, and no conjugation reads tau's entries
    period = cm_rank22_period(8, F(-3, 2))
    path = tmp_path / "d8.json"
    path.write_text(json.dumps(_period_document(period)))
    numberfield.conjugation_matrix.cache_clear()
    converted, conjugated, conjugating = [], [], []

    def integer_row(row, real=linalg._integer_row):
        if conjugating:
            converted.append(row)
        return real(row)

    def conjugate(vec, emb, real=numberfield.conjugate_vector):
        conjugated.extend(vec)
        conjugating.append(vec)
        try:
            return real(vec, emb)
        finally:
            conjugating.pop()

    # every conjugation is a conjugate_vector
    _route(monkeypatch, linalg._integer_row, integer_row)
    _route(monkeypatch, numberfield.conjugate_vector, conjugate)
    assert main(["classify", str(path), "--json"]) == 0
    capsys.readouterr()
    tau = numberfield.conjugation_matrix(period.field, period.embedding.index)
    assert len(conjugated) >= 22
    assert converted == []
    assert len(tau._int_rows) == tau.rows
    with pytest.raises(AttributeError):
        Matrix.entries.__get__(tau)          # the unset slot: never read


def test_hodge_defect_makes_no_field_product(monkeypatch):
    # tau(x^i) G_T omega is a rational combination of the vectors
    # G_T x^k omega, with tau(x^i) a column of the conjugation matrix, so
    # the defect rows of the rank-22, d = 8 period take no FieldElement
    # product and no conjugation
    h = transcendental_lattice(cm_rank22_period(8, F(-3, 2)))
    products, calls, inside = [], [], []

    def mul(a, b, real=FieldElement.__mul__):
        if inside:
            products.append((a, b))
        return real(a, b)

    def defect_rows(h, multiples, red, real=hodge._defect_rows):
        calls.append(red)
        inside.append(red)
        try:
            rows = real(h, multiples, red)
        finally:
            inside.pop()
        assert rows.rows == 8
        return rows

    def conjugate(vec, emb, real=numberfield.conjugate_vector):
        if inside:
            products.append(vec)
        return real(vec, emb)

    monkeypatch.setattr(hodge, "_defect_rows", defect_rows)
    _route(monkeypatch, numberfield.conjugate_vector, conjugate)
    monkeypatch.setattr(FieldElement, "__mul__", mul)
    monkeypatch.setattr(FieldElement, "__rmul__", mul)
    ef = endomorphism_field(h)
    assert (ef.e, ef.classification) == (8, CM)
    assert len(calls) == 1 and calls[0].rows == 8
    assert products == []


def test_hodge_classes_dimension_is_e():
    for make in (gaussian_period, sqrt2i_period, quartic_cm_period):
        h = transcendental_lattice(make())
        ef = endomorphism_field(h)
        classes = hodge_classes_tensor_square(h)
        assert len(classes) == ef.e


def test_hodge_classes_contain_polarization_tensor():
    h = transcendental_lattice(sqrt2i_period())
    classes = hodge_classes_tensor_square(h)
    assert len(classes) == 1
    gram_t = Matrix(tuple(tuple(h.space.form(u, v) for v in h.trans.entries)
                          for u in h.trans.entries))
    qdual = inverse(gram_t)
    lead = None
    for row_c, row_q in zip(classes[0].entries, qdual.entries):
        for c, q in zip(row_c, row_q):
            if q != 0:
                lead = c / q
                break
        if lead is not None:
            break
    assert lead is not None and classes[0] == qdual * lead


def test_hodge_classes_definite_two_dim_nonzero():
    # any valid two-dimensional lattice carries at least the polarization
    h = transcendental_lattice(gaussian_period())
    assert len(hodge_classes_tensor_square(h)) >= 1


def cm_rank22_period(d=4, shift=0):
    """The CM recipe: T = Q(zeta_2d) with q(x, y) = Tr(a x conj y) for
    the weight a = zeta + zeta^-1 + shift, positive at exactly one real
    place, the period the trace-dual basis of the power basis at an
    embedding where a > 0, padded by -1 entries to rank 22 and moved by a
    unimodular change of basis P: G -> P^T G P, omega -> P^-1 omega.  At
    d = 4 the mixing is one where G_T^2 is not in E, so E G_T^-1 and
    E G_T differ."""
    m = 22
    field = nf_create([1] + [0] * (d - 1) + [1])
    x = field.gen()
    a = x - power(x, d - 1) + shift
    gram = [[F(0)] * m for _ in range(m)]
    for i in range(d):
        for j in range(d):
            gram[i][j] = field_trace(a * power(x, (i - j) % (2 * d)))
    for i in range(d, m):
        gram[i][i] = F(-1)
    omega = [field.from_rational(F(1, d))]
    omega += [-power(x, d - i) / d for i in range(1, d)]
    omega += [field.zero()] * (m - d)
    p = [[F(int(i == j)) for j in range(m)] for i in range(m)]
    p_inv = [row[:] for row in p]
    rng = random.Random(2)
    for _ in range(16):
        i, j = rng.sample(range(m), 2)
        s = rng.choice((1, -1))
        p[i] = [u + s * v for u, v in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= s * row[i]
    p, p_inv = Matrix(p), Matrix(p_inv)
    assert p * p_inv == Matrix.identity(m)
    sp = QuadraticSpace(p.transpose() * Matrix(gram) * p)
    emb = next(s for s in nf_embeddings(field) if certified_sign(a, s) > 0)
    return validate_period(sp, field, emb, p_inv.vec(omega))


# ---- oracles: the generic solvers the eigenvalue character replaced ----

def _flat(m):
    return tuple(c for row in m.entries for c in row)


def _square(v, t):
    return Matrix(tuple(tuple(v[i * t:(i + 1) * t]) for i in range(t)))


def _matrix_minpoly(m):
    """Minimal polynomial by the first linear dependence among powers."""
    powers = [Matrix.identity(m.rows)]
    while True:
        ker = reference.kernel(Matrix(tuple(zip(*(_flat(p) for p in powers)))))
        if ker.rows > 0:
            lam = ker.entries[0]
            return tuple(c / lam[-1] for c in lam)
        powers.append(powers[-1] * m)


def _primitive_element(basis, seed):
    """A basis combination whose minimal polynomial has degree dim E,
    found by trying basis matrices then seeded small integer
    combinations."""
    e = len(basis)
    for b in basis:
        p = _matrix_minpoly(b)
        if len(p) - 1 == e:
            return b, p
    rng = random.Random(seed)
    for _ in range(1000):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        cand = sum((b * c for c, b in zip(coeffs, basis)),
                   Matrix.zeros(basis[0].rows, basis[0].rows))
        p = _matrix_minpoly(cand)
        if len(p) - 1 == e:
            return cand, p
    raise AssertionError("no primitive element found")


def _restricted_gram(h):
    return Matrix(tuple(tuple(h.space.form(u, v) for v in h.trans.entries)
                        for u in h.trans.entries))


def oracle_omega_t(h):
    """Coordinates of the period over the basis of T, solved over F."""
    field = h.period.field
    cols = Matrix(tuple(zip(*(tuple(field.from_rational(c) for c in row)
                              for row in h.trans.entries))))
    return reference.solve_linear(cols, h.period.omega).particular


def oracle_endomorphism_field(h, seed=0):
    """E as the kernel of the vanishing 2x2 minors of (phi omega, omega),
    a system in t^2 unknowns, with span membership by solve_linear, the
    adjoint as matrices and the primitive element from matrix powers.
    Returns (basis, fixed subalgebra, primitive matrix, its minpoly)."""
    e_f = h.period.field.degree
    t = h.dim_t
    omega_t = oracle_omega_t(h)
    prods = [[omega_t[r] * omega_t[k] for k in range(t)] for r in range(t)]
    rows = []
    for r in range(t):
        for s in range(r + 1, t):
            for j in range(e_f):
                row = [F(0)] * (t * t)
                for k in range(t):
                    row[s * t + k] += prods[r][k].coords[j]
                    row[r * t + k] -= prods[s][k].coords[j]
                rows.append(tuple(row))
    ker = reference.kernel(Matrix(rows)) if rows else Matrix.identity(t * t)
    basis = tuple(_square(v, t) for v in ker.entries)
    cols = Matrix(tuple(zip(*(_flat(b) for b in basis))))

    def spans(m):
        return reference.solve_linear(cols, _flat(m)).particular is not None

    assert spans(Matrix.identity(t))
    assert all(a * b == b * a and spans(a * b) for a in basis for b in basis)
    gram_t = _restricted_gram(h)
    gram_inv = reference.inverse(gram_t)
    adj = tuple(gram_inv * a.transpose() * gram_t for a in basis)
    assert all(spans(a) for a in adj)
    fixed = ()
    if any(a != s for a, s in zip(basis, adj)):
        diffs = [_flat(a + s * F(-1)) for a, s in zip(basis, adj)]
        fix_ker = reference.kernel(Matrix(tuple(zip(*diffs))))
        fixed = tuple(sum((b * c for c, b in zip(lam, basis)),
                          Matrix.zeros(t, t))
                      for lam in fix_ker.entries)
    prim, minpoly = _primitive_element(basis, seed)
    return basis, fixed, prim, minpoly


def oracle_hodge_classes(h):
    """Rational tensors in T (x) T whose (4,0), (3,1), (1,3) and (0,4)
    components in the frame (omega, conj omega, T^{1,1}) vanish, solved
    as a kernel over F."""
    field = h.period.field
    t = h.dim_t
    omega_t = oracle_omega_t(h)
    omega_conj_t = tuple(conjugate_element(v, h.period.embedding)
                         for v in omega_t)
    gram_f = Matrix(tuple(tuple(field.from_rational(c) for c in row)
                          for row in _restricted_gram(h).entries))
    lowered = Matrix((gram_f.vec(omega_t), gram_f.vec(omega_conj_t)))
    frame = ((tuple(omega_t), tuple(omega_conj_t))
             + reference.kernel(lowered).entries)
    p_inv = reference.inverse(Matrix(frame).transpose())
    forbidden = [(0, 0), (1, 1)]
    for j in range(2, t):
        forbidden += [(0, j), (j, 0), (1, j), (j, 1)]
    rows = []
    for r, s in forbidden:
        for j in range(field.degree):
            rows.append(tuple((p_inv[r, a] * p_inv[s, b]).coords[j]
                              for a in range(t) for b in range(t)))
    return tuple(_square(v, t) for v in reference.kernel(Matrix(rows)).entries)


@pytest.mark.parametrize("make", [
    gaussian_period, sqrt2i_period, lambda: sqrt2i_period(padded=True),
    quartic_cm_period, cm_rank22_period,
], ids=["gaussian", "sqrt2i", "sqrt2i_padded", "quartic_cm", "cm_rank22"])
def test_character_pipeline_matches_oracles(make):
    h = transcendental_lattice(make())
    assert h.omega_t == oracle_omega_t(h)
    assert h.gram == _restricted_gram(h)
    ef = endomorphism_field(h)
    basis, fixed, prim, minpoly = oracle_endomorphism_field(h)
    assert ef.basis == basis
    assert ef.fixed_subalgebra == fixed
    assert ef.primitive_matrix == prim
    assert ef.primitive_minpoly == minpoly
    assert hodge_classes_tensor_square(h) == oracle_hodge_classes(h)


def test_cm_rank22_answer():
    h = transcendental_lattice(cm_rank22_period())
    ef = endomorphism_field(h)
    assert (h.dim_t, ef.e, ef.classification) == (4, 4, CM)
    assert ef.mt.family == U_E and ef.mt.rank == 1
    assert len(hodge_classes_tensor_square(h)) == 4


def test_cm_rank22_answer_at_degree_cap():
    h = transcendental_lattice(cm_rank22_period(16, F(-9, 5)))
    ef = endomorphism_field(h)
    assert (h.dim_t, ef.e, ef.classification) == (16, 16, CM)
    assert ef.mt.family == U_E and ef.mt.rank == 1
    assert len(ef.fixed_subalgebra) == 8
    assert len(hodge_classes_tensor_square(h)) == 16


# ---- metamorphic relations -----------------------------------------------

def _answer(period):
    h = transcendental_lattice(period)
    ef = endomorphism_field(h)
    return (h.dim_t, ef.e, ef.classification, ef.mt.family, ef.mt.rank,
            len(ef.fixed_subalgebra), len(hodge_classes_tensor_square(h)))


def totally_real_octic_period():
    """E = Q(sqrt 2) on T = E^3 over the degree-8 field Q(r + i) of the
    corpus: t = 6 < e_F = 8, so the line stabilizer is a proper subfield
    of F."""
    return build_period(
        load_problem_file(CORPUS / "totally_real_sqrt2_period.json")[1])


METAMORPHIC_PERIODS = {
    "gaussian": gaussian_period, "sqrt2i": sqrt2i_period,
    "quartic_cm": quartic_cm_period,
    "incompatible_quartic": incompatible_quartic_period,
    "totally_real_octic": totally_real_octic_period,
}


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(sorted(METAMORPHIC_PERIODS)),
       st.lists(st.integers(1, 3), max_size=2),
       st.lists(st.tuples(st.integers(0, 99), st.integers(1, 99),
                          st.sampled_from((1, -1))), max_size=8),
       st.lists(st.integers(-2, 2), min_size=8, max_size=8))
@example("totally_real_octic", [2], [(0, 5, 1), (3, 7, -1), (6, 1, 1)],
         [1, 0, -1, 0, 0, 2, 0, 1])         # t < e_F under every move
def test_answer_invariant_under_basis_padding_and_scaling(name, pad, moves,
                                                          scale):
    # the answer does not change under padding by a negative-definite
    # algebraic block, a unimodular change of basis P (G -> P^T G P,
    # omega -> P^-1 omega) and scaling omega by a nonzero c in F
    base = METAMORPHIC_PERIODS[name]()
    field, m = base.field, base.dim + len(pad)
    c = field.element(scale[:field.degree])
    assume(not c.is_zero())
    gram = [list(r) + [F(0)] * len(pad) for r in base.space.gram.entries]
    gram += [[F(0)] * m for _ in pad]
    for k, d in enumerate(pad):
        gram[base.dim + k][base.dim + k] = F(-d)
    omega = list(base.omega) + [field.zero()] * len(pad)
    p = [[F(int(i == j)) for j in range(m)] for i in range(m)]
    p_inv = [row[:] for row in p]
    for i, j, sign in moves:
        i, j = i % m, (i + j) % m
        if i != j:
            p[i] = [u + sign * v for u, v in zip(p[i], p[j])]
            for row in p_inv:
                row[j] -= sign * row[i]
    p, p_inv = Matrix(p), Matrix(p_inv)
    assert p * p_inv == Matrix.identity(m)
    moved = validate_period(QuadraticSpace(p.transpose() * Matrix(gram) * p),
                            field, base.embedding,
                            tuple(c * v for v in p_inv.vec(omega)))
    assert _answer(moved) == _answer(base)


@pytest.mark.parametrize("name", sorted(METAMORPHIC_PERIODS))
def test_answer_invariant_under_conjugate_embedding(name):
    # the same omega at the conjugate embedding: sigma' = conj sigma keeps
    # q(omega, omega) = 0 and the real q(omega, conj omega), and tau is the
    # same automorphism of F, so the answer stays the same
    base = METAMORPHIC_PERIODS[name]()
    emb = nf_embeddings(base.field)[base.embedding.conjugate_index]
    assert emb.index != base.embedding.index
    moved = validate_period(base.space, base.field, emb, base.omega)
    assert _answer(moved) == _answer(base)


SHIFT_PERIODS = {
    "qi": gaussian_period, "sqrt2i": sqrt2i_period,
    "incompatible_quartic": incompatible_quartic_period,
    "cm_d4": cm_rank22_period,
}


def _bounding_box(disk, shift=0, scale=1):
    """Bounding square ((re lo, re hi), (im lo, im hi)) of the disk
    |w - (X + iY)/D| <= R/D of eval_box, under w -> (w - shift) / scale
    for a scale > 0."""
    x, y, r, d = disk
    return (((F(x - r, d) - shift) / scale, (F(x + r, d) - shift) / scale),
            (F(y - r, d) / scale, F(y + r, d) / scale))


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(sorted(SHIFT_PERIODS)),
       st.fractions(min_value=F(1, 7), max_value=5, max_denominator=7),
       st.fractions(min_value=-5, max_value=5, max_denominator=7))
def test_answer_invariant_under_field_shift(name, k, c):
    # F = Q[x]/(f) presented as Q[y]/(k^n f((y - c) / k)) with y = kx + c,
    # k > 0: every embedding moves by z -> kz + c, which keeps the order
    # of real and of imaginary parts, so the embedding order, the
    # conjugate indices and the answer stay the same
    base = SHIFT_PERIODS[name]()
    field = base.field
    n = field.degree
    scaled = [a * k ** (n - i) for i, a in enumerate(field.defining_poly)]
    shifted = nf_create(shifted_poly(scaled, c))
    image = (shifted.gen() - c) * (1 / k)

    def move(v):
        acc = shifted.zero()
        for a in reversed(v.coords):
            acc = acc * image + a
        return acc

    embs, moved_embs = nf_embeddings(field), nf_embeddings(shifted)
    assert [e.conjugate_index for e in moved_embs] == \
        [e.conjugate_index for e in embs]
    # (sigma'_i(y) - c) / k is the root of f isolated by sigma_i
    width = F(1, 2**30)
    boxes = [_bounding_box(e.eval_box(field.gen(), width)) for e in embs]
    for i, emb in enumerate(moved_embs):
        box = _bounding_box(emb.eval_box(shifted.gen(), width), c, k)
        assert all(any(p[1] < q[0] or q[1] < p[0] for p, q in zip(box, b))
                   for j, b in enumerate(boxes) if j != i)
    moved = validate_period(base.space, shifted,
                            moved_embs[base.embedding.index],
                            tuple(move(v) for v in base.omega))
    assert _answer(moved) == _answer(base)
