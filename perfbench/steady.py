#!/usr/bin/env python3
"""Steadiness check: run one workload in two sets back to back, each set
on seeds 1..k, and compare the sets on every end-to-end metric.

    python3 perfbench/steady.py --workload serve [--runs 10]

Each run lasts run_seconds from BENCHMARK.json.  For each set the script
prints every metric's median, quartiles, and interquartile and max-min
spreads as shares of the median, beside the metric's bound.  A spread
within a third of its bound reads "ok", one within the bound "within",
a wider one "WIDE".  setup_s is exempt from the spread rule (its bound
guards the median only) and reads "median-only".  Then it prints both
medians and how much worse the second is than the first, as a share of
the first; "ok" if that is within the bound.  The failed share of every
run must be the same; the script exits 1 if it is not, or if a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_set(workload, runs, seconds, label):
    values = {}
    shares = []
    for seed in range(1, runs + 1):
        out = subprocess.run(
            ["python3", os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print("set %s seed %d exited %d" % (label, seed, out.returncode))
            return None
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            print("set %s seed %d: correct=false" % (label, seed))
            return None
        shares.append((res["failed"], res["attempted"]))
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("set %s seed %d: attempted=%d failed=%d  %s" % (
            label, seed, res["attempted"], res["failed"],
            " ".join("%s=%.4g" % (k, v["value"])
                     for k, v in res["metrics"].items())))
        sys.stdout.flush()
    return values, shares


def spread_table(label, values, bounds):
    print("set %s" % label)
    print("%-20s %14s %14s %14s %9s %9s %7s  %s" % (
        "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound", "spread"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        iqr = (q3 - q1) / med
        rng = (max(vs) - min(vs)) / med
        bound = bounds[name]
        if name == "setup_s":
            verdict = "median-only"
        elif iqr <= bound / 3:
            verdict = "ok"
        elif iqr <= bound:
            verdict = "within"
        else:
            verdict = "WIDE"
        print("%-20s %14.6g %14.6g %14.6g %9.4f %9.4f %7.2f  %s" % (
            name, med, q1, q3, iqr, rng, bound, verdict))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {x["name"]: x["bound"] for x in bench["end_to_end"]}
    better = {x["name"]: x["better"] for x in bench["end_to_end"]}
    sets = []
    for label in ("A", "B"):
        r = run_set(a.workload, a.runs, bench["run_seconds"], label)
        if r is None:
            return 1
        sets.append(r)
    (va, sa), (vb, sb) = sets
    spread_table("A", va, bounds)
    spread_table("B", vb, bounds)
    print("%-20s %14s %14s %9s %7s  %s" % (
        "metric", "median A", "median B", "B worse", "bound", "drift"))
    for name in va:
        ma, mb = statistics.median(va[name]), statistics.median(vb[name])
        worse = (mb - ma) / ma if better[name] == "lower" else (ma - mb) / ma
        print("%-20s %14.6g %14.6g %9.4f %7.2f  %s" % (
            name, ma, mb, worse, bounds[name],
            "ok" if worse <= bounds[name] else "WORSE"))
    shares = sa + sb
    print("failed share per run: %s" % sorted("%d/%d" % s for s in set(shares)))
    if len({f / n for f, n in shares}) != 1:
        print("failed share differs between runs")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
