#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs the command from BENCHMARK.json on each workload once per seed and
prints, per end-to-end metric, the median and the interquartile spread
(Q3 - Q1, from statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound. Run from the repository root:

    python3 perfbench/spread.py                      # every workload, seeds 1-10
    python3 perfbench/spread.py --workloads calibrate --seeds 101-105
    python3 perfbench/spread.py --trace 1            # traced runs, no bounds
    python3 perfbench/spread.py --passes 2           # two interleaved sets

With --passes 2 every seed runs twice in a row, once for each set, so
both sets see the same phases of a host whose speed drifts. The script
then also prints how much worse the second set's median is than the
first's, as a share of the first, next to the bound.

Runs are sequential, so load threads never compete with each other.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def report(results, bounds):
    """Per metric: median, spread, and the worst spread / bound."""
    worst = 0.0
    medians = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        medians[name] = med
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = "  OK" if spread < bound / 3 else "  WIDE"
        print(f"  {name:40s} median {med:14.6g}  spread {spread:7.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
        print("    runs: " + " ".join(f"{v:.4g}" for v in values))
    return worst, medians


def worsening(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--passes", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    worst = 0.0
    worst_drift = float("-inf")
    for workload in args.workloads.split(","):
        sets = [[] for _ in range(args.passes)]
        for seed in parse_seeds(args.seeds):
            for results in sets:
                results.append(run_once(bench, workload, seed, args.trace))
        medians = []
        for i, results in enumerate(sets, 1):
            assert all(r["correct"] and r["failed"] == 0 for r in results), results
            print(f"== {workload}" + (f", set {i}" if args.passes > 1 else "")
                  + f": {len(results)} runs, "
                  f"attempted {[r['attempted'] for r in results]}")
            w, med = report(results, bounds)
            worst = max(worst, w)
            medians.append(med)
        for i in range(1, len(medians)):
            print(f"-- {workload}: set {i + 1} median vs set 1 (worse by, as a share of set 1)")
            for name, first in medians[0].items():
                if name not in bounds:
                    continue
                d = worsening(first, medians[i][name], better[name])
                worst_drift = max(worst_drift, d / bounds[name])
                flag = "OK" if d <= bounds[name] else "FAIL"
                print(f"  {name:40s} {d:+8.4f}  bound {bounds[name]}  {flag}")
    if args.trace == 0:
        print(f"worst spread / bound: {worst:.3f} (steady below 0.333)")
        if args.passes > 1:
            print(f"worst set-to-set worsening / bound: {worst_drift:.3f} (must stay at or below 1)")


if __name__ == "__main__":
    main()
