#!/usr/bin/env python3
"""Checks that the benchmark repeats within its own bounds.

Runs two sets of the same build, alternating between them run by run,
with a new seed for every run (set A takes seeds first..first+n-1, set B
the next n). For every workload and end-to-end metric it prints each
set's median and quartiles, the spread (Q3 - Q1) / median per set and
over both sets together, and whether the two sets agree: every spread
within the metric's bound, the two medians apart by no more than the
bound in either direction, and the same share of failed operations.
Bounds in BENCHMARK.json are set from this output; a spread under a
third of its bound is the target.

Usage (from the repository root):
  python3 perfbench/steadiness.py [--workloads a,b] [--runs 10]
      [--seconds S] [--first-seed 1] [--out results.json]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: " + " ".join(cmd))
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def worse_by(metric, first, second):
    """Share by which `second` is worse than `first` (< 0: better)."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="also write every run's result here")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    workloads = args.workloads.split(",")
    results = {w: ([], []) for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            # Alternate which set goes first, so drift hits both alike.
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for s in order:
                seed = args.first_seed + i + s * args.runs
                r = run_once(w, seed, args.seconds)
                results[w][s].append(r)
                print("%-15s set %s seed %3d  %s" % (
                    w, "AB"[s], seed, " ".join(
                        "%s=%.4g" % (k, v["value"])
                        for k, v in r["metrics"].items())), flush=True)
    if args.out:
        json.dump(results, open(args.out, "w"), indent=1)

    all_ok = True
    print()
    print("%-15s %-15s %6s %11s %11s %11s %7s %11s %7s %7s %7s  %s" % (
        "workload", "metric", "bound", "A median", "A q1", "A q3", "A sprd",
        "B median", "B sprd", "AB sprd", "worse", "verdict"))
    for w in workloads:
        sets = results[w]
        shares = [sum(r["failed"] for r in runs) /
                  max(1, sum(r["attempted"] for r in runs)) for runs in sets]
        if not all(r["correct"] for runs in sets for r in runs):
            print("%-15s some run reported correct=false" % w)
            all_ok = False
        if shares[0] != shares[1]:
            print("%-15s failed share differs: %r vs %r" % (w, *shares))
            all_ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                stats.append((med, q1, q3, spread(values)))
            both = spread([r["metrics"][name]["value"]
                           for runs in sets for r in runs])
            worse = worse_by(m, stats[0][0], stats[1][0])
            spreads = [s[3] for s in stats] + [both]
            ok = all(x <= bound for x in spreads) and abs(worse) <= bound
            target = all(x < bound / 3 for x in spreads)
            all_ok = all_ok and ok
            print("%-15s %-15s %6.3f %11.5g %11.5g %11.5g %7.3f %11.5g %7.3f "
                  "%7.3f %7.3f  %s" % (
                      w, name, bound, stats[0][0], stats[0][1], stats[0][2],
                      stats[0][3], stats[1][0], stats[1][3], both, worse,
                      ("agree" if ok else "DISAGREE") +
                      ("" if target else " (spread above a third of bound)")))
    print("\nall metrics agree within their bounds" if all_ok
          else "\nsome metrics do NOT agree within their bounds")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
