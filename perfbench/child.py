"""Child process of the benchmark.

    python3 perfbench/child.py cli TRACE OP ARGV...
        imports hodgekit.cli and calls hodgekit.cli.main(ARGV) as the
        console script does; the CLI output goes to stdout and the exit
        code is main's return value.  OP is the operation id of its spans.
    python3 perfbench/child.py algebra TRACE ITEMS_FILE
        imports the library and runs one pass of the algebra items.
    python3 perfbench/child.py import 0 cli|algebra
        only imports what the cli or algebra mode imports.

TRACE is 0 or 1.  The last line of stderr is RECORD_TAG followed by a
JSON record: monotonic timestamps taken at interpreter start, after the
import, and at the end, whether sympy got imported, the algebra results
and, when traced, the spans.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

RECORD_TAG = "PERFBENCH_RECORD "


def run_cli(op, argv, tracer):
    from hodgekit.cli import main

    if tracer is None:
        return main(argv)
    with tracer.operation(op):
        return main(argv)


def run_algebra(items, tracer):
    from fractions import Fraction

    from hodgekit.errors import HodgekitError
    from hodgekit.exactmath import Matrix
    from hodgekit.ksympl import (KSymplecticCandidate, clifford_operators,
                                 verify_k_symplectic)
    from hodgekit.qforms import QuadraticSpace
    from hodgekit.symalg import HARMONIC, SymAlgebra, power_top

    def matrix(rows):
        return Matrix([[Fraction(c) for c in r] for r in rows])

    algebras = {}

    def top_power(item):
        alg = algebras.get(item["algebra"])
        if alg is None:
            alg = SymAlgebra(QuadraticSpace(matrix(item["gram"])), HARMONIC,
                             item["top"])
            algebras[item["algebra"]] = alg
        p = power_top(alg, tuple(Fraction(c) for c in item["vector"]))
        return lambda: {"coeffs": [[list(k), str(c)] for k, c in p.coeffs]}

    def ksympl(item):
        cand = KSymplecticCandidate(tuple(matrix(m) for m in item["psis"]))
        report = verify_k_symplectic(cand, seed=0)
        cliff = None
        if report.ok:
            base = tuple(Fraction(int(i == 0)) for i in range(cand.k))
            cliff = clifford_operators(cand, report, base)

        def result():
            out = {"ok": report.ok, "failure_reason": report.failure_reason}
            if report.ok:
                out.update({
                    "quadric": [[str(c) for c in r] for r in report.quadric.entries],
                    "scalar": str(report.scalar),
                    "rank_on_quadric": report.rank_on_quadric,
                    "witness_field": [str(c) for c in report.witness_field_poly]
                    if report.witness_field_poly else None,
                    "operator_squares": [str(s) for s in cliff.squares]})
            return out
        return result

    run = {"power_top": top_power, "ksympl": ksympl}
    results = []
    for op, item in enumerate(items):
        t0 = time.monotonic()
        try:
            if tracer is None:
                finish = run[item["kind"]](item)
            else:
                with tracer.operation(op):
                    finish = run[item["kind"]](item)
            t1 = time.monotonic()
            results.append({"name": item["name"], "t0": t0, "seconds": t1 - t0,
                            "result": finish()})
        except HodgekitError as exc:
            results.append({"name": item["name"], "t0": t0,
                            "seconds": time.monotonic() - t0,
                            "error": type(exc).__name__})
    return results


def main():
    mode, traced, rest = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    if (rest[0] if mode == "import" else mode) == "cli":
        import hodgekit.cli  # noqa: F401
    else:
        import hodgekit.ksympl  # noqa: F401
        import hodgekit.symalg  # noqa: F401
    t_imported = time.monotonic()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_ready = time.monotonic()
    record = {"t_start": T_START, "t_imported": t_imported, "t_ready": t_ready}
    code = 0
    if mode == "cli":
        code = run_cli(int(rest[0]), rest[1:], tracer)
    elif mode == "algebra":
        with open(rest[0]) as fh:
            items = json.load(fh)
        record["results"] = run_algebra(items, tracer)
    record["t_end"] = time.monotonic()
    record["sympy"] = "sympy" in sys.modules
    if tracer is not None:
        record["trace"] = tracer.dump()
    sys.stdout.flush()
    sys.stderr.write("\n" + RECORD_TAG + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
