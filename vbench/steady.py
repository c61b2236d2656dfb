#!/usr/bin/env python3
"""Steadiness self-check for the V-cal benchmark.

    python3 vbench/steady.py [--workloads stencil,shuffle,serve-mix]
                             [--seconds S]

Runs run.py once per seed for each workload, in two back-to-back sets of
ten seeds each (1-10, then 11-20), and reads every end-to-end metric
from the result lines. For each set and metric it prints the median and
the spread: the distance between the first and third quartile as a
share of the median (statistics.quantiles, n=4). The check fails when a
spread exceeds the metric's bound in BENCHMARK.json, or when the two
sets' medians differ, in either direction, by more than the bound.
Spreads above a third of the bound are flagged as a warning.
Run from the root of the checkout; it takes a few minutes per workload.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = 10  # runs per set
SETS = 2    # back-to-back sets, compared with each other


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "vbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), out.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit("incorrect output: %s" % " ".join(cmd))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="also print every run's value")
    args = ap.parse_args()

    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(SETS):
            seeds = range(1 + s * SEEDS, 1 + (s + 1) * SEEDS)
            sets.append([run_once(workload, seed, args.seconds)
                         for seed in seeds])
        print("== %s (%d seeds x %d sets, %d s)"
              % (workload, SEEDS, SETS, args.seconds))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds, cells = [], []
            for runs in sets:
                vals = [r[name] for r in runs]
                med, spr = statistics.median(vals), spread(vals)
                meds.append(med)
                flag = ""
                if spr > bound:
                    flag, ok = " FAIL", False
                elif spr > bound / 3:
                    flag = " warn"
                cells.append("%12.5g  %6.3f%s" % (med, spr, flag))
            for med in meds[1:]:
                drift = abs(med - meds[0]) / meds[0]
                if drift > bound:
                    cells.append("drift %.3f FAIL" % drift)
                    ok = False
            print("  %-18s bound %.2f  %s" % (name, bound, " | ".join(cells)))
            if args.verbose:
                for runs in sets:
                    print("      " + " ".join("%.4g" % r[name] for r in runs))
    print("steady" if ok else "NOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
