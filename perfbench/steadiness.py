#!/usr/bin/env python3
"""Checks that the benchmark's end-to-end metrics are steady.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2]
                                    [--workloads a,b] [--seed-base 1000]

Run from the repository root. Reads BENCHMARK.json, runs its command
--runs times per workload and set, each run with its own --seed, and
prints per metric the median, the quartiles and the spread, which is the
distance between the quartiles as a share of the median. It then checks
what two separate sets of runs must show:

  - every spread except setup_s's is within the metric's bound (a spread
    above a third of the bound is flagged as thin margin);
  - no metric's median in a later set is worse than the first set's by
    more than its bound;
  - the share of failed operations is exactly the same in every set.

Exits 1 when a check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(first, later, better):
    if first == 0:
        return 0.0 if later == first else float("inf")
    change = (later - first) / first
    return change if better == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset (default: all)")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--out", default="",
                    help="also write every run's result to this JSON file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")

    ok = True
    record = {}
    seed = args.seed_base
    for wl in names:
        sets = []
        for s in range(args.sets):
            runs = []
            for _ in range(args.runs):
                runs.append(run_once(bench["command"], wl, seed,
                                     bench["run_seconds"]))
                seed += 1
            sets.append(runs)
        record[wl] = sets

        print(f"\n{wl}")
        print(f"  {'metric':<20} {'set':>3} {'median':>12} {'q1':>12} "
              f"{'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            first_median = None
            for s, runs in enumerate(sets):
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                med, q1, q3, sp = spread(values)
                verdict = []
                if m["name"] != "setup_s":
                    if sp > m["bound"]:
                        verdict.append("SPREAD ABOVE BOUND")
                        ok = False
                    elif sp > m["bound"] / 3:
                        verdict.append("spread above bound/3")
                if first_median is None:
                    first_median = med
                else:
                    w = worse_by(first_median, med, m["better"])
                    verdict.append(f"vs set 1: {100 * w:+.2f}% worse")
                    if w > m["bound"]:
                        verdict.append("DRIFT ABOVE BOUND")
                        ok = False
                print(f"  {m['name']:<20} {s + 1:>3} {med:>12.6g} "
                      f"{q1:>12.6g} {q3:>12.6g} {100 * sp:>7.2f}% "
                      f"{m['bound']:>6}  {'; '.join(verdict) or 'ok'}")
        shares = []
        for runs in sets:
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            shares.append((failed, attempted))
            if not all(r["correct"] for r in runs):
                print("  INCORRECT OUTPUT in some run")
                ok = False
        same = all(f * shares[0][1] == shares[0][0] * a for f, a in shares)
        print("  failed/attempted per set: " +
              ", ".join(f"{f}/{a}" for f, a in shares) +
              ("" if same else "  SHARES DIFFER"))
        ok = ok and same

    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f)
    print("\nsteady" if ok else "\nNOT STEADY")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
