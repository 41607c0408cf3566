"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s to see the lines on success).

All tolerances are exact equality; criteria 1, 2 and 5 also carry
wall-clock budgets which are asserted.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from hodgekit.exactmath import Matrix, nf_create, nf_embeddings, rank
from hodgekit.hodge import (endomorphism_field, hodge_classes_tensor_square,
                            transcendental_lattice, validate_period)
from hodgekit.ksympl import (KSymplecticCandidate, clifford_operators,
                             divisibility_bound, subvariety_bound, torus_bound,
                             verify_k_symplectic)
from hodgekit.perdom import PeriodPath, griffiths_check
from hodgekit.qforms import QuadraticSpace
from hodgekit.symalg import (SymAlgebra, build_tha, contraction_matrix,
                             harm_dim, power_top, sym_decompose_dims, sym_dim)
from test_perdom import make_isotropic_path

F = Fraction
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def report(number, name, ok, elapsed=None):
    stamp = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'}{stamp}")
    assert ok, f"criterion {number} ({name}) failed"


def qspace(rows):
    return QuadraticSpace(Matrix([[F(c) for c in r] for r in rows]))


def test_criterion_1_harmonic_dimension_oracle():
    start = time.time()
    ok = True
    for m in range(3, 7):
        ident = QuadraticSpace(Matrix.identity(m))
        for i in range(0, 7):
            expected = harm_dim(m, i)
            if i < 2:
                kernel_dim = sym_dim(m, i)
            else:
                kernel_dim = sym_dim(m, i) - rank(contraction_matrix(ident, i))
            if kernel_dim != expected:
                ok = False
            if sum(sym_decompose_dims(m, i)) != sym_dim(m, i):
                ok = False
    elapsed = time.time() - start
    report(1, "harmonic dimension oracle", ok and elapsed < 30, elapsed)


def test_criterion_2_power_nondegeneracy():
    start = time.time()
    rng = random.Random(1729)
    ok = True
    for m in (3, 4, 5):
        grams = [Matrix.identity(m)]
        indef = [[F(0)] * m for _ in range(m)]
        for a in range(m):
            indef[a][a] = F(1) if a < 2 else F(-1)
        grams.append(Matrix(indef))
        for gram in grams:
            space = QuadraticSpace(gram)
            indefinite = gram.entries[m - 1][m - 1] < 0
            for n in (2, 3):
                alg = SymAlgebra(space, "harmonic", n)
                trials = []
                for _ in range(200):
                    x = tuple(F(rng.randint(-9, 9)) for _ in range(m))
                    if all(c == 0 for c in x):
                        x = (F(1),) + (F(0),) * (m - 1)
                    trials.append(x)
                if indefinite:
                    iso = [F(0)] * m
                    iso[0], iso[m - 1] = F(1), F(1)
                    assert space.form(tuple(iso), tuple(iso)) == 0
                    trials.append(tuple(iso))
                for x in trials:
                    if power_top(alg, x).is_zero():
                        ok = False
    elapsed = time.time() - start
    report(2, "top-power nondegeneracy", ok and elapsed < 60, elapsed)


def test_criterion_3_cm_recovery():
    field = nf_create([1, 0, 1])
    emb = nf_embeddings(field)[1]
    sp = qspace([[1, 0], [0, 1]])
    p = validate_period(sp, field, emb,
                        (field.element([1, 0]), field.element([0, 1])))
    h = transcendental_lattice(p)
    ef = endomorphism_field(h)
    classes_dim = len(hodge_classes_tensor_square(h))
    tha = build_tha(h, ef, 3)
    ok = (h.dim_t == 2 and ef.e == 2 and ef.classification == "CM"
          and len(ef.fixed_subalgebra) == 1
          and ef.mt.family == "U_E" and ef.mt.rank == 1
          and classes_dim == 2
          and tha.graded_dims_q == (2, 2, 2, 2))
    report(3, "CM recovery on the Gaussian example", ok)


def test_criterion_4_tr_recovery():
    field = nf_create([9, 0, -2, 0, 1])
    emb = nf_embeddings(field)[3]
    sp = qspace([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    sqrt2 = field.element([0, F(5, 6), 0, F(-1, 6)])
    i_el = field.element([0, F(1, 6), 0, F(1, 6)])
    p = validate_period(sp, field, emb, (sqrt2, i_el, field.one()))
    h = transcendental_lattice(p)
    ef = endomorphism_field(h)
    tha = build_tha(h, ef, 2)
    # frozen from the oracle run of the brute-force endomorphism solver
    ok = (h.dim_t == 3 and ef.e == 1
          and ef.classification == "TotallyReal"
          and ef.mt.family == "SO_E" and ef.mt.rank == 3
          and tha.graded_dims_q == (1, 3, 5))
    report(4, "totally real recovery on the quartic example", ok)


def test_criterion_5_quaternion_k_symplectic():
    start = time.time()
    I_L = Matrix([[F(0), F(-1), F(0), F(0)], [F(1), F(0), F(0), F(0)],
                  [F(0), F(0), F(0), F(-1)], [F(0), F(0), F(1), F(0)]])
    J_L = Matrix([[F(0), F(0), F(-1), F(0)], [F(0), F(0), F(0), F(1)],
                  [F(1), F(0), F(0), F(0)], [F(0), F(-1), F(0), F(0)]])
    K_L = Matrix([[F(0), F(0), F(0), F(-1)], [F(0), F(0), F(-1), F(0)],
                  [F(0), F(1), F(0), F(0)], [F(1), F(0), F(0), F(0)]])
    cand = KSymplecticCandidate((I_L, J_L, K_L))
    rep = verify_k_symplectic(cand)
    cliff = clifford_operators(cand, rep, (1, 0, 0)) if rep.ok else None
    ident = Matrix.identity(4)
    ok = (rep.ok
          and rep.quadric == Matrix.identity(3)
          and rep.rank_on_quadric == 2
          and rep.witness_field_poly == (F(1), F(0), F(1))
          and cliff is not None
          and cliff.operators[0] * cliff.operators[1]
          + cliff.operators[1] * cliff.operators[0] == Matrix.zeros(4, 4)
          and all(a * a == ident * F(-1) for a in cliff.operators)
          and divisibility_bound(3) == 2 and cand.v_dim % 2 == 0)
    elapsed = time.time() - start
    report(5, "quaternionic 3-symplectic verification", ok and elapsed < 10,
           elapsed)


def test_criterion_6_paper_numerics():
    ok = (torus_bound(20) == 1024
          and divisibility_bound(22) == 1024
          and subvariety_bound(20, 1) == 22)
    report(6, "headline numeric bounds", ok)


def test_criterion_7_transversality_identity():
    lorentz = qspace([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    circle = PeriodPath(lorentz, ((F(1), F(0), F(-1)), (F(0), F(2)),
                                  (F(1), F(0), F(1))))
    ok = griffiths_check(circle)
    rng = random.Random(65537)
    base = (F(1), F(0), F(1))
    count = 0
    while count < 50:
        w1 = tuple(F(rng.randint(-6, 6)) for _ in range(3))
        w2 = tuple(F(rng.randint(-6, 6)) for _ in range(3))
        path = make_isotropic_path(lorentz, base, w1, w2)
        if path is None:
            continue
        ok = ok and griffiths_check(path)
        count += 1
    report(7, "transversality identity on isotropic paths", ok)


def test_criterion_8_cli_determinism():
    commands = [
        ["classify", str(CORPUS / "qi_period.json"), "--json"],
        ["classify", str(CORPUS / "sqrt2i_period.json"), "--json"],
        ["tha", str(CORPUS / "qi_period.json"), "--n", "3", "--json"],
        ["tha", str(CORPUS / "sqrt2i_period.json"), "--n", "2", "--json"],
        ["ksympl", str(CORPUS / "quaternion3.json"), "--json"],
        ["ksympl", str(CORPUS / "quaternion3_doubled.json"), "--json"],
        ["bounds", "--d", "20", "--e", "1", "--dim-h1", "2048", "--json"],
        ["perdom", "check-path", str(CORPUS / "circle_path.json"), "--json"],
    ]
    ok = True
    for args in commands:
        outputs = []
        for hashseed in ("1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            proc = subprocess.run([sys.executable, "-m", "hodgekit.cli", *args],
                                  capture_output=True, env=env)
            if proc.returncode != 0:
                ok = False
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1] or not outputs[0]:
            ok = False
        json.loads(outputs[0])  # machine output must be valid JSON
    report(8, "byte-identical CLI runs", ok)
