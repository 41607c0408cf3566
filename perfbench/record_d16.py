#!/usr/bin/env python3
"""One-off stage record of the cm_ladder recipe at d = 16 (rank 22).

The d = 16 rung takes minutes, so it stays out of the repeated benchmark
runs.  This script runs `classify` on it once, stage by stage, in one
process, checks the known answer (e = 16, CM, U_E of rank 1, 16 Hodge
classes) and writes the stage times to perfbench/records/cm_d16_stages.json.

    python3 perfbench/record_d16.py
"""

import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import factory  # noqa: E402


def main():
    d = 16
    doc, p_inv = factory.cm_problem(d)
    expected = factory.cm_classify_answer(d, p_inv)
    from fractions import Fraction

    from hodgekit.exactmath import Matrix, nf_create, nf_embeddings
    from hodgekit.hodge import (endomorphism_field, hodge_classes_tensor_square,
                                transcendental_lattice, validate_period)
    from hodgekit.qforms import QuadraticSpace

    stages = {}

    def stage(name, fn, *args):
        t = time.monotonic()
        out = fn(*args)
        stages[name] = round(time.monotonic() - t, 3)
        print(f"{name}: {stages[name]} s", file=sys.stderr, flush=True)
        return out

    gram = Matrix([[Fraction(c) for c in r] for r in doc["gram"]])
    space = stage("quadratic_space", QuadraticSpace, gram)
    field = stage("nf_create", nf_create, [Fraction(c) for c in doc["field"]])
    embs = stage("nf_embeddings", nf_embeddings, field)
    omega = tuple(field.element([Fraction(c) for c in r]) for r in doc["omega"])
    period = stage("validate_period", validate_period, space, field,
                   embs[doc["embedding"]], omega)
    h = stage("transcendental_lattice", transcendental_lattice, period)
    ef = stage("endomorphism_field", endomorphism_field, h)
    classes = stage("hodge_classes_tensor_square",
                    hodge_classes_tensor_square, h)
    want = expected["endomorphism_field"]
    answer = {"dim_t": h.dim_t, "e": ef.e, "classification": ef.classification,
              "mt_family": ef.mt.family, "mt_rank": ef.mt.rank,
              "hodge_classes_dim": len(classes)}
    correct = (answer["dim_t"] == d
               and all(answer[k] == want[k] for k in answer if k != "dim_t"))
    import sympy

    record = {
        "problem": "cm_ladder recipe, d = 16, rank 22, plain basis",
        "stages_s": stages,
        "total_s": round(sum(stages.values()), 3),
        "answer": answer,
        "correct": correct,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "sympy": sympy.__version__},
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
    }
    out_dir = os.path.join(HERE, "records")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "cm_d16_stages.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(json.dumps(record))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
