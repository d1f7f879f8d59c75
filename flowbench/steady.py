#!/usr/bin/env python3
"""Steadiness check for the flow benchmark.

Runs one workload repeatedly, with seeds 1, 2, ... and the run length
in BENCHMARK.json, and prints for every metric its median, first and third quartile, the quartile
spread as a share of the median, and the max-min spread:

    python3 flowbench/steady.py --workload tile_sim --runs 10
    python3 flowbench/steady.py --workload server_mixed --runs 5 --trace 1

Run it from the repository root. The benchmark is built once, by the
first run; the quartiles are Python's ``statistics.quantiles(n=4)``.
"""

import argparse
import json
import statistics
import subprocess
import sys

COMMAND = [
    "cargo", "run", "--release", "--quiet", "--offline",
    "--manifest-path", "flowbench/Cargo.toml", "--",
]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        COMMAND + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as f:
        seconds = json.load(f)["run_seconds"]

    values = {}
    units = {}
    failed_shares = set()
    for seed in range(1, args.runs + 1):
        result = run_once(args.workload, seed, seconds, args.trace)
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: output checks failed")
        failed_shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}",
              file=sys.stderr)

    print(f"{args.workload}: {args.runs} runs of {seconds} s, trace {args.trace}, "
          f"failed shares {sorted(failed_shares)}")
    print(f"{'metric':28} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'iqr/med':>8} {'max-min':>12}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        share = (q3 - q1) / med if med else 0.0
        print(f"{name:28} {units[name]:>6} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{share:8.3f} {max(vals) - min(vals):12.6g}")


if __name__ == "__main__":
    main()
