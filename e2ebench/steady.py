#!/usr/bin/env python3
"""Steadiness check: runs the benchmark several times per workload, one seed per run,
and prints for every metric its median, quartiles and spread (the distance between
the quartiles as a share of the median, with quartiles as Python's
statistics.quantiles(values, n=4) gives them).

Run from the repository root:

    python3 e2ebench/steady.py                      # every workload, seeds 1..10
    python3 e2ebench/steady.py --workload flat --seeds 1,2,3,4,5
    python3 e2ebench/steady.py --seeds 1001-1010    # the held-out seeds
    python3 e2ebench/steady.py --trace 1            # per-layer metrics

The command, run length, workloads and bounds come from BENCHMARK.json. A spread
above a third of a metric's bound is marked `!`, above the bound `!!`; `setup_s` is
reported but not held to its bound (the driver compares only its median).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(args)}\n{proc.stdout}")
    return json.loads(lines[-1]), wall


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()

    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    for workload in workloads:
        values = {}
        shares = set()
        for seed in seeds:
            result, wall = run_once(bench["command"], workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: a correctness check failed")
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
        print(f"== {workload}: {len(seeds)} runs, seeds {args.seeds}, "
              f"failed shares {sorted(shares)}")
        print(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name in bounds:
            vals = values.get(name)
            if not vals:
                print(f"{name:<28} missing")
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "!!" if spread > bound else "!" if spread > bound / 3 else ""
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"{name:<28} {med:>14.5g} {q1:>14.5g} {q3:>14.5g} {spread:>8.3f} "
                  f"{bound_text:>6} {flag}")


if __name__ == "__main__":
    main()
