#!/usr/bin/env python3
"""Compare two hodgekit checkouts on one benchmark workload in
alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seed S --pairs N [--out FILE]

Each pair runs `perfbench/run.py --workload W --seed S --trace 0` once in
each checkout, for the run length that the change's BENCHMARK.json
declares; the parent runs first on odd pairs and second on even ones.
For every end-to-end metric the result gives each side's median and
quartiles, and the number of pairs each side won (ties count for
neither), by the metric's better direction.  The JSON goes to stdout;
with --out it is also stored under the workload's name in FILE, keeping
the other workloads already there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """The metrics dict and correctness of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return ({name: m["value"] for name, m in result["metrics"].items()},
            result["correct"])


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs, spec):
    """Per metric: each side's median and quartiles and the pairs won."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(p[name], c[name]) for p, c in zip(runs["parent"], runs["change"])]
        change_won = sum((c < p) if lower else (c > p) for p, c in pairs)
        parent_won = sum((p < c) if lower else (p > c) for p, c in pairs)
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent": summary([p for p, _ in pairs]),
            "change": summary([c for _, c in pairs]),
            "pairs_won": {"parent": parent_won, "change": change_won},
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    correct = True
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            metrics, ok = run_once(sides[side], args.workload, args.seed,
                                   spec["run_seconds"])
            runs[side].append(metrics)
            correct = correct and ok
        print(f"bench_pairs: {args.workload} pair {pair}/{args.pairs} done",
              file=sys.stderr)
    result = {"seed": args.seed, "pairs": args.pairs,
              "run_seconds": spec["run_seconds"], "all_correct": correct,
              "metrics": compare(runs, spec), "runs": runs}
    print(json.dumps(result, indent=1))
    if args.out:
        doc = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                doc = json.load(fh)
        doc.setdefault("workloads", {})[args.workload] = result
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
