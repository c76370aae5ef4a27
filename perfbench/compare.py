#!/usr/bin/env python3
"""Paired runs of two checkouts and the comparison of their results.

Run MIN_PAIRS pairs of run_seconds each, as BENCHMARK.json fixes it (the
same seed on both sides of a pair; the parent runs first in even pairs and
second in odd ones, so drift and warm-up fall on both sides):

    python3 perfbench/compare.py run --parent ../parent --change . \\
        --workload point-read --out pairs.json

Each checkout is run through its own perfbench/run.py with --trace 0, so
both sides use identical benchmark code only when perfbench/ is identical
in both; the tool refuses to pair checkouts whose perfbench/ differ.
Results for several workloads accumulate in one file.

Compare:

    python3 perfbench/compare.py report pairs.json

prints one row per workload and metric: each side's median and quartiles,
the pairs the change won, and a verdict. A gain needs the change to win at
least 9 of 10 pairs (ties count for neither side), at least MIN_PAIRS pairs,
and a median gap wider than the parent's interquartile range. A regression is a change median
worse than the parent's by more than the metric's bound in BENCHMARK.json.
A metric whose own spread (IQR over median, either side) exceeds its bound
is "unresolved" unless every change run beats every parent run.
"""

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# MIN_PAIRS is the number of pairs a run makes and the fewest a gain may
# rest on.
MIN_PAIRS = 10


def same_tree(a, b):
    cmp = filecmp.dircmp(a, b, ignore=["__pycache__"])
    if cmp.left_only or cmp.right_only or cmp.diff_files or cmp.funny_files:
        return False
    return all(same_tree(os.path.join(a, d), os.path.join(b, d)) for d in cmp.common_dirs)


def run_one(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit("run failed in %s (seed %d):\n%s" % (checkout, seed, out.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit("wrong answers in %s (seed %d)" % (checkout, seed))
    info = json.loads(lines[-2])["info"] if len(lines) > 1 else {}
    return {"seed": seed, "info": info,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def cmd_run(args):
    for side in (args.parent, args.change):
        if not same_tree(os.path.join(args.parent, "perfbench"), os.path.join(side, "perfbench")):
            raise SystemExit("perfbench/ differs between the checkouts: pair identical benchmark code")
    with open(BENCHMARK) as f:
        seconds = json.load(f)["run_seconds"]
    data = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            data = json.load(f)
    rows = data.setdefault(args.workload, {"parent": [], "change": []})
    for i in range(MIN_PAIRS):
        seed = args.seed + i
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        for side, checkout in order:
            r = run_one(checkout, args.workload, seed, seconds)
            r["first"] = side == order[0][0]
            rows[side].append(r)
            print("%s pair %d %s: %s" % (args.workload, i, side,
                  " ".join("%s=%.4g" % kv for kv in sorted(r["metrics"].items()))), flush=True)
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(metric, parent, change, bound):
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p))
    spread = max((p3 - p1) / abs(pm) if pm else 0, (c3 - c1) / abs(cm) if cm else 0)
    dominates = all(better(c, p) for c in change for p in parent)
    worse_by = (cm - pm) / abs(pm) if lower else (pm - cm) / abs(pm)
    if pm and spread > bound and not dominates:
        v = "unresolved"
    elif len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and abs(cm - pm) > (p3 - p1) \
            and better(cm, pm):
        v = "gain"
    elif pm and worse_by > bound:
        v = "regression"
    else:
        v = "within bound"
    return (p1, pm, p3), (c1, cm, c3), wins, v


def cmd_report(args):
    with open(args.results) as f:
        data = json.load(f)
    with open(args.benchmark) as f:
        bench = json.load(f)
    print("%-11s %-20s %-34s %-34s %-7s %s" % ("workload", "metric", "parent median [q1, q3]",
                                                "change median [q1, q3]", "wins", "verdict"))
    fmt = lambda q: "%.5g [%.5g, %.5g]" % (q[1], q[0], q[2])
    status = 0
    for workload, rows in sorted(data.items()):
        parent = {r["seed"]: r["metrics"] for r in rows["parent"]}
        change = {r["seed"]: r["metrics"] for r in rows["change"]}
        seeds = sorted(set(parent) & set(change))
        for m in bench["end_to_end"]:
            name = m["name"]
            p = [parent[s][name] for s in seeds]
            c = [change[s][name] for s in seeds]
            pq, cq, wins, v = verdict(m, p, c, m["bound"])
            print("%-11s %-20s %-34s %-34s %2d/%-4d %s" % (workload, name, fmt(pq), fmt(cq),
                                                         wins, len(seeds), v))
            if v == "regression":
                status = 1
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run alternating pairs of parent and change")
    r.add_argument("--parent", required=True, help="root of the parent checkout")
    r.add_argument("--change", required=True, help="root of the changed checkout")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i uses seed+i")
    r.add_argument("--out", required=True)
    c = sub.add_parser("report", help="compare the two sides of a pairs file")
    c.add_argument("results")
    c.add_argument("--benchmark", default=BENCHMARK)
    args = ap.parse_args()
    if args.cmd == "run":
        cmd_run(args)
        return 0
    return cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
