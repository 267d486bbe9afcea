#!/usr/bin/env python3
"""Steadiness check: two independent sets of runs per workload.

    python3 perfbench/steady.py [--runs 5] [--workloads a,b] [--seconds 10]
                                [--seed-base 1] [--second-seeds same|fresh]

Each set runs every workload --runs times, one process per run, seeds
seed-base .. seed-base+runs-1. The second set reuses those seeds (same,
the default: timely_throughput must then repeat exactly) or takes fresh
ones (fresh). For every end-to-end metric the command prints each set's
median and quartiles, the spread (interquartile distance over median) of
all runs together, and whether the two medians agree within the metric's
bound in BENCHMARK.json; the spread must stay below a third of the bound
(set-up time excepted). It also checks that every run was correct and that
the share of failed operations is the same in both sets. Exit code 0 when
everything holds, 1 otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, no result")
    return json.loads(lines[-1]), wall


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(better, first, second):
    """Relative amount by which `second` is worse than `first`."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--second-seeds", choices=("same", "fresh"), default="same")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    seeds_a = [args.seed_base + i for i in range(args.runs)]
    seeds_b = seeds_a if args.second_seeds == "same" else [
        args.seed_base + 1000 + i for i in range(args.runs)]

    ok = True
    for workload in workloads:
        sets = []
        for seeds in (seeds_a, seeds_b):
            runs = []
            for seed in seeds:
                result, wall = run_once(workload, seed, seconds)
                runs.append((seed, result, wall))
            sets.append(runs)
        print(f"== {workload}: {args.runs} runs per set, {seconds} s each, "
              f"run wall {max(w for s in sets for _, _, w in s):.1f} s at most")

        for i, runs in enumerate(sets):
            bad = [seed for seed, r, _ in runs if not r["correct"]]
            if bad:
                print(f"  set {i + 1}: INCORRECT results for seeds {bad}")
                ok = False
        shares = [sorted({r["failed"] / r["attempted"] for _, r, _ in runs}) for runs in sets]
        same_share = len(shares[0]) == 1 and shares[0] == shares[1]
        print(f"  failed share per set: {shares[0]} / {shares[1]} "
              f"{'same' if same_share else 'DIFFERENT'}")
        ok &= same_share

        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = [[r["metrics"][name]["value"] for _, r, _ in runs] for runs in sets]
            qs = [quartiles(v) for v in per_set]
            pooled = per_set[0] + per_set[1]
            q1, q2, q3 = quartiles(pooled)
            spread = (q3 - q1) / q2
            drift = worse_by(metric["better"], qs[0][1], qs[1][1])
            agree = drift <= bound
            steady = name == "setup_s" or spread < bound / 3
            ok &= agree and steady
            print(f"  {name:22s} set1 {qs[0][1]:.6g} [{qs[0][0]:.6g}, {qs[0][2]:.6g}]  "
                  f"set2 {qs[1][1]:.6g} [{qs[1][0]:.6g}, {qs[1][2]:.6g}]  "
                  f"spread {spread:.4f} (bound {bound}) {'steady' if steady else 'NOISY'}  "
                  f"worse by {drift:+.4f} {'agree' if agree else 'DISAGREE'}")
            if name == "timely_throughput" and args.second_seeds == "same":
                repeat = per_set[0] == per_set[1]
                ok &= repeat
                print(f"  {'':22s} same seeds -> {'identical' if repeat else 'NOT identical'}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
