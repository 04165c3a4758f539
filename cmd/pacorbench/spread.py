#!/usr/bin/env python3
"""Runs the benchmark command of BENCHMARK.json once per seed on each workload
and prints, per metric, the median and the spread: the distance between the
first and third quartiles of statistics.quantiles(values, n=4) as a share of
the median. Run it from the repository root:

    python3 cmd/pacorbench/spread.py [--runs 10] [--first-seed 1] [--trace 0] [workload ...]

It prints one JSON line per workload as it finishes.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    for name in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            res = subprocess.run(cmd, capture_output=True, text=True)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                sys.exit(f"{name} seed {seed}: exit {res.returncode}\n{res.stderr}")
            line = json.loads(lines[-1])
            if not line["correct"]:
                sys.exit(f"{name} seed {seed}: incorrect\n{res.stderr}")
            for metric, v in line["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        report = {}
        for metric, vs in sorted(values.items()):
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            report[metric] = {"median": med, "spread": (q3 - q1) / med if med else 0.0, "values": vs}
        print(json.dumps({"workload": name, "metrics": report}), flush=True)


if __name__ == "__main__":
    main()
