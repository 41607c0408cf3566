"""Tests of the known-answer factory: the constructions hold exactly, and
hodgekit gives every predicted answer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import factory  # noqa: E402
import run  # noqa: E402


def cyclo_mul(u, v, d):
    """Product in Q[x]/(x^d + 1)."""
    out = [Fraction(0)] * d
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            k = i + j
            if k < d:
                out[k] += a * b
            else:
                out[k - d] -= a * b
    return out


def cyclo_conj(u, d):
    """x -> x^-1 = -x^(d-1)."""
    out = [Fraction(0)] * d
    out[0] = u[0]
    for k in range(1, d):
        out[d - k] -= u[k]
    return out


def field_form(gram, u, v, d):
    acc = [Fraction(0)] * d
    for i, ui in enumerate(u):
        for j, vj in enumerate(v):
            if gram[i][j]:
                acc = [a + gram[i][j] * c for a, c in zip(acc, cyclo_mul(ui, vj, d))]
    return acc


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_cm_period_is_isotropic_and_positive(d):
    gram, omega = factory.cm_gram(d), factory.cm_omega(d)
    assert field_form(gram, omega, omega, d) == [0] * d
    pos = field_form(gram, omega, [cyclo_conj(w, d) for w in omega], d)
    # q(omega, conj omega) = a c conj(c): positive exactly where a is
    values = factory.embedding_values(d)
    assert sum(s > 0 for s in values) == 2
    for z, a in zip(factory.embedding_roots(d), values):
        value = factory.evaluate(pos, z)
        assert abs(value.imag) < 1e-9 and (value.real > 0) == (a > 0)


def test_basis_change_is_unimodular():
    import random

    p, p_inv = factory.basis_change(random.Random(3))
    ident = [[int(i == j) for j in range(factory.RANK)]
             for i in range(factory.RANK)]
    assert factory.matmul(p, p_inv) == ident


@pytest.mark.parametrize("triples,dim", [(factory._QUAT, 4),
                                         (factory._FANO, 8)])
def test_left_multiplications_are_clifford(triples, dim):
    units = factory._left_multiplications(triples, dim)
    minus = [[-int(i == j) for j in range(dim)] for i in range(dim)]
    for a, ua in enumerate(units):
        assert ua == [[-c for c in r] for r in factory.transpose(ua)]
        assert factory.matmul(ua, ua) == minus
        for ub in units[:a]:
            s = [[x + y for x, y in zip(r1, r2)] for r1, r2 in
                 zip(factory.matmul(ua, ub), factory.matmul(ub, ua))]
            assert s == [[0] * dim for _ in range(dim)]


def run_main(argv):
    from hodgekit.cli import main

    buf = io.BytesIO()
    text = io.TextIOWrapper(buf)
    with redirect_stdout(text):
        code = main(argv + ["--json"])
    text.detach()
    return {"code": code, "stdout": buf.getvalue(), "record": {}}


@pytest.mark.parametrize("seed", [0, 1])
def test_cli_corpus_answers(seed):
    for name, argv, expected in factory.cli_corpus(seed):
        os.chdir(ROOT)
        assert run.cli_answer_ok(run_main(argv), expected), name


def test_cm_ladder_answers(tmp_path):
    for name, doc, args, expected in factory.cm_ladder(0):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        argv = [args[0], str(path), *args[1:]]
        assert run.cli_answer_ok(run_main(argv), expected), name


@pytest.mark.parametrize("seed", [0, 1])
def test_algebra_answers(seed):
    items = factory.algebra(seed)
    results = {r["name"]: r for r in child.run_algebra(items, None)}
    for item in items:
        assert run.algebra_answer_ok(item, results[item["name"]]), item["name"]


def test_answer_check_rejects_wrong_answers():
    name, argv, expected = factory.CORPUS_GOOD[0]
    os.chdir(ROOT)
    proc = run_main(argv)
    proc["stdout"] = proc["stdout"].replace(b'"CM"', b'"XX"')
    assert not run.cli_answer_ok(proc, expected)
    item = next(i for i in factory.algebra(0) if i["isotropic"])
    wrong = {"result": {"coeffs": [[[item["top"]] + [0] * (len(item["gram"]) - 1),
                                    "1"]]}}
    assert not run.algebra_answer_ok(item, wrong)
