#!/usr/bin/env python3
"""How steady is the benchmark on this host?

Runs every workload of BENCHMARK.json ten times, each time with another
seed, and prints for each end-to-end metric the distance between the first
and third quartile of its ten values as a share of their median, next to the
metric's bound. A spread above a third of the bound means the metric needs a
longer section or a larger bound before it can gate anything.

Run from the repo root:  python3 benchmark/steadiness.py [first_seed] [runs]
"""
import json
import statistics
import subprocess
import sys


def main() -> int:
    first_seed = int(sys.argv[1]) if len(sys.argv) > 1 else 100
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in bounds}
        for seed in range(first_seed, first_seed + runs):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stdout, done.stderr, sep="\n")
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect", done.stdout, sep="\n")
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(workload)
        for name, samples in values.items():
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median
            ok = spread <= bounds[name] / 3 or name == "setup_s"
            steady &= ok
            print(f"  {name:<20} median {median:>12.4f}  spread {spread:6.2%}"
                  f"  bound {bounds[name]:4.0%}  {'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
