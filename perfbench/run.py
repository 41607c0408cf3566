#!/usr/bin/env python3
"""hodgekit benchmark: known-answer workloads driven from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a hodgekit checkout; it uses the sources under
src/ and the files under corpus/.  Workloads:

  cli_corpus  every shipped corpus file, good and bad, through its
              subcommand, plus the bounds calls; one process per operation
  cm_ladder   generated CM periods of degree 2, 4 and 8 at rank 22, plain
              and under a change of basis, two near-misses and one tha;
              one process per operation
  algebra     harmonic top powers and k-symplectic families; one process
              per pass, library calls inside it

Every operation's answer is checked against the answer predicted by
perfbench/factory.py.  Load is closed-loop from one client: one
operation at a time.  Passes over the problem set repeat while the next
one is expected to end within S seconds (at least one pass).  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; --trace 0 reports the end-to-end metrics, --trace 1
runs one untraced and one traced pass and reports the per-layer metrics.
Raw traces go to .perfbench_out/ in the checkout.

The end-to-end times are seconds at a fixed reference speed: each timed
interval's length times the machine speed perfbench/speed.py sampled on
the benchmark's CPU during it.  The per-layer times are as measured.
"""

import argparse
import json
import os
import signal
import statistics
import sys
import threading
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")
OP_TIMEOUT = 60  # seconds; the largest operation takes under 10
SETUP_PROBES = 20

sys.path.insert(0, HERE)
import factory  # noqa: E402
from child import RECORD_TAG  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import ROOT as ROOT_SPAN, SPANS, self_times  # noqa: E402


# ---- processes ------------------------------------------------------------

def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


ENV = child_env()


def spawn(args):
    """Run child.py with the given arguments to completion; returns the
    parent's spawn and reap times, the exit code, stdout, the child's
    record (None if it wrote none) and its peak RSS from wait4."""
    out_path = os.path.join(OUT, "child.stdout")
    err_path = os.path.join(OUT, "child.stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    argv = [sys.executable, CHILD, *args]
    t_spawn = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, ENV, file_actions=actions)
    timer = threading.Timer(OP_TIMEOUT, os.kill, (pid, signal.SIGKILL))
    timer.start()
    _, status, usage = os.wait4(pid, 0)
    t_exit = time.monotonic()
    timer.cancel()
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        lines = fh.read().decode(errors="replace").splitlines()
    record = None
    if lines and lines[-1].startswith(RECORD_TAG):
        record = json.loads(lines[-1][len(RECORD_TAG):])
    return {"t_spawn": t_spawn, "t_exit": t_exit,
            "code": os.waitstatus_to_exitcode(status), "stdout": stdout,
            "record": record, "rss_mb": usage.ru_maxrss / 1024}


# ---- answer checks --------------------------------------------------------

def sections_match(got, want):
    for title, rows in want.items():
        section = got.get(title, {})
        for key, value in rows.items():
            if key == "primitive_minpoly_degree":
                if len(section.get("primitive_minpoly", ())) - 1 != value:
                    return False
            elif section.get(key) != value:
                return False
    return True


def cli_answer_ok(proc, expected):
    """Exit code, status and sections (or error class) as predicted."""
    if proc["record"] is None:
        return False
    try:
        doc = json.loads(proc["stdout"])
    except ValueError:
        return False
    if "error" in expected:
        return (proc["code"] == 2 and doc.get("status") == "error"
                and doc["sections"].get("error", {}).get("class")
                == expected["error"])
    status = expected.get("status", "ok")
    return (proc["code"] == (0 if status == "ok" else 2)
            and doc.get("status") == status
            and sections_match(doc.get("sections", {}), expected["sections"]))


def _poly(coeffs):
    return {tuple(k): Fraction(c) for k, c in coeffs}


def _linear_power(v, n):
    """(sum v_i x_i)^n expanded, by repeated multiplication."""
    m = len(v)
    p = {(0,) * m: Fraction(1)}
    for _ in range(n):
        q = {}
        for mon, c in p.items():
            for i, vi in enumerate(v):
                if vi:
                    k = mon[:i] + (mon[i] + 1,) + mon[i + 1:]
                    q[k] = q.get(k, 0) + c * vi
        p = {k: c for k, c in q.items() if c}
    return p


def _contract(p, gram):
    """sum_ab g_ab d_a d_b applied to p."""
    out = {}
    m = len(gram)
    for mon, c in p.items():
        for a in range(m):
            for b in range(m):
                g = gram[a][b]
                if not g:
                    continue
                k = list(mon)
                coef = mon[a] * (mon[a] - 1) if a == b else mon[a] * mon[b]
                if not coef:
                    continue
                k[a] -= 1
                k[b] -= 1
                k = tuple(k)
                out[k] = out.get(k, 0) + c * g * coef
    return {k: c for k, c in out.items() if c}


def algebra_answer_ok(item, res):
    if res is None or "result" not in res:
        return False
    got = res["result"]
    if item["kind"] == "ksympl":
        return all(got.get(k) == v for k, v in item["expect"].items())
    p = _poly(got["coeffs"])
    m, top = len(item["gram"]), item["top"]
    if not p or any(len(k) != m or sum(k) != top for k in p):
        return False
    if _contract(p, item["gram"]):
        return False
    return not item["isotropic"] or p == _linear_power(item["vector"], top)


# ---- workloads ------------------------------------------------------------

def cli_ops(workload, seed):
    """[(name, argv, expected)] with argv relative to the checkout."""
    if workload == "cli_corpus":
        return factory.cli_corpus(seed)
    problems = os.path.join(OUT, "problems")
    os.makedirs(problems, exist_ok=True)
    ops = []
    for name, doc, args, expected in factory.cm_ladder(seed):
        path = os.path.join(problems, name + ".json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        ops.append((name, [args[0], os.path.relpath(path, ROOT), *args[1:]],
                    expected))
    return ops


def cli_pass(ops, traced):
    """One pass over the CLI operations.  Times are (start, end) pairs on
    the monotonic clock: the pass, each operation's process and, for
    compute, each operation's time after import."""
    t0 = time.monotonic()
    procs = [spawn(["cli", traced, str(op), *argv, "--json"])
             for op, (_, argv, _) in enumerate(ops)]
    span = (t0, time.monotonic())
    ok = [cli_answer_ok(p, expected) for p, (_, _, expected) in zip(procs, ops)]
    compute = [(p["record"]["t_ready"], p["record"]["t_end"])
               for p in procs if p["record"] is not None]
    return {"span": span, "compute": compute, "procs": procs, "ok": ok,
            "names": [name for name, _, _ in ops],
            "op_spans": [(p["t_spawn"], p["t_exit"]) for p in procs]}


def algebra_pass(items, traced):
    """One pass over the algebra items in one process; times as in
    cli_pass, an operation's being its library call."""
    t0 = time.monotonic()
    proc = spawn(["algebra", traced, os.path.join(OUT, "algebra_items.json")])
    span = (t0, time.monotonic())
    results = {}
    if proc["record"] is not None and proc["code"] == 0:
        results = {r["name"]: r for r in proc["record"]["results"]}
    ok = [algebra_answer_ok(item, results.get(item["name"])) for item in items]
    names = [item["name"] for item in items]
    # an item without a result (the child crashed) counts the whole pass
    op_spans = [(results[n]["t0"], results[n]["t0"] + results[n]["seconds"])
                if n in results else span for n in names]
    compute = [(r["t0"], r["t0"] + r["seconds"]) for r in results.values()]
    return {"span": span, "compute": compute, "procs": [proc], "ok": ok,
            "names": names, "op_spans": op_spans}


def setup_probe(workload):
    mode = "algebra" if workload == "algebra" else "cli"
    return spawn(["import", "0", mode])


def end_to_end(workload, passes, probes, speed):
    procs = probes + [p for one in passes for p in one["procs"]]
    setup = [speed.work(p["t_spawn"], p["record"]["t_imported"])
             for p in procs if p["record"] is not None]
    largest = [speed.work(*one["op_spans"][one["names"].index(
        factory.LARGEST[workload])]) for one in passes]
    attempted = sum(len(one["ok"]) for one in passes)
    failed = sum(not ok for one in passes for ok in one["ok"])
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(speed.work(*one["span"]) for one in passes),
        "compute_s": statistics.median(sum(speed.work(*c) for c in one["compute"])
                                       for one in passes),
        "largest_s": statistics.median(largest),
        "peak_rss_mb": max(p["rss_mb"] for p in procs),
        "ok_ops_ratio": (attempted - failed) / attempted,
    }
    print(f"perfbench: medians over {len(passes)} passes; setup_s over "
          f"{len(setup)} processes", file=sys.stderr)
    return attempted, failed, metrics


POWER_TOP = ("symalg.power_top_cold", "symalg.power_top_warm")
LAYER_SPANS = [name for _, _, name in SPANS] + [*POWER_TOP, "linalg.matmul"]


def per_layer(workload, plain, traced, probes, speed):
    procs = probes + plain["procs"] + traced["procs"]
    recs = [(p, p["record"]) for p in procs if p["record"] is not None]
    spans = []
    counts = {}
    for p in traced["procs"]:
        trace = (p["record"] or {}).get("trace")
        if trace is None:
            continue
        base = len(spans)
        for name, start, end, parent, op in trace["spans"]:
            spans.append([name, start, end, parent + base if parent >= 0 else -1,
                          op])
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
    table = self_times(spans)
    metrics = {
        "cli.interpreter_s": statistics.median(r["t_start"] - p["t_spawn"]
                                               for p, r in recs),
        "cli.import_s": statistics.median(r["t_imported"] - r["t_start"]
                                          for _, r in recs),
        "cli.ops_importing_sympy": sum(bool((p["record"] or {}).get("sympy"))
                                       for p in traced["procs"]),
    }
    for name in LAYER_SPANS:
        seconds, calls, inclusive = table.get(name, (0.0, 0, 0.0))
        # a top power's work happens in its children, so cold and warm
        # calls are reported with it
        metrics[name + "_s"] = inclusive if name in POWER_TOP else seconds
        metrics[name + "_calls"] = calls
    for key in ("linalg.rref_cells", "numberfield.eval_box_calls",
                "numberfield.field_mul_calls", "mpoly.mp_mul_calls"):
        metrics[key] = counts.get(key, 0)
    roots = table.get(ROOT_SPAN, (0.0, 0))[0]
    accounted = sum(s for s, _, _ in table.values())
    metrics["trace.other_s"] = roots
    metrics["trace.accounted_ratio"] = accounted / sum(
        t1 - t0 for t0, t1 in traced["compute"])
    metrics["trace.overhead_ratio"] = (speed.work(*traced["span"])
                                       / speed.work(*plain["span"]))
    metrics["machine.speed_ratio"] = statistics.fmean(speed.speeds)
    with open(os.path.join(OUT, f"trace_{workload}.json"), "w") as fh:
        json.dump({"self_times": table, "counts": counts, "spans": spans}, fh)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(factory.LARGEST))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (os.path.isfile(os.path.join(ROOT, "src", "hodgekit", "cli.py"))
            and os.path.isdir(os.path.join(ROOT, "corpus"))):
        print("perfbench: run from a hodgekit checkout (src/hodgekit and "
              "corpus/ are missing)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(OUT, exist_ok=True)

    if args.workload == "algebra":
        items = factory.algebra(args.seed)
        with open(os.path.join(OUT, "algebra_items.json"), "w") as fh:
            json.dump(items, fh)

        def run_pass(traced):
            return algebra_pass(items, traced)
    else:
        ops = cli_ops(args.workload, args.seed)

        def run_pass(traced):
            return cli_pass(ops, traced)

    with SpeedProbe() as speed:
        setup_probe(args.workload)  # fills bytecode and file caches; not timed
        probes = [setup_probe(args.workload) for _ in range(SETUP_PROBES)]
        if args.trace:
            passes = [run_pass("0"), run_pass("1")]
        else:
            # start another pass only while it is expected to end in time
            start = time.monotonic()
            passes = [run_pass("0")]
            while ((time.monotonic() - start) * (len(passes) + 1) / len(passes)
                   <= args.seconds):
                passes.append(run_pass("0"))
    attempted, failed, e2e = end_to_end(args.workload, passes, probes, speed)
    for one in passes:
        for name, ok in zip(one["names"], one["ok"]):
            if not ok:
                print(f"perfbench: wrong answer or failure: {name}",
                      file=sys.stderr)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.trace:
        values = per_layer(args.workload, passes[0], passes[1], probes, speed)
        wanted = spec["per_layer"]
    else:
        values = e2e
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
