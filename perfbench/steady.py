#!/usr/bin/env python3
"""Steadiness and counter-determinism check for the perfbench benchmark.

Runs the command named in BENCHMARK.json once per seed for each chosen
workload and prints, for every end-to-end metric, the median, the
quartile spread (Q3 - Q1 as a share of the median, with quartiles as
`statistics.quantiles(values, n=4)` gives them) and the metric's bound.

With --trace it makes traced runs instead and reports, for each
per-layer count, whether it repeats exactly across seeds, only across
repeats of one seed, or not at all.

Run from the repository root, for example:

    python3 perfbench/steady.py --runs 10 --workloads jit-sweep,service
    python3 perfbench/steady.py --runs 3 --repeat 2 --trace
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: wrong or failed verdicts: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(bench, workloads, runs, seed0):
    worst = 0.0
    for w in workloads:
        samples = [run(bench["command"], w, seed0 + i, bench["run_seconds"], 0) for i in range(runs)]
        print(f"\n{w} ({runs} runs, seeds {seed0}..{seed0 + runs - 1})")
        for m in bench["end_to_end"]:
            values = [s[m["name"]] for s in samples]
            sp = spread(values)
            flag = "" if sp < m["bound"] / 3 else "  <-- above bound/3"
            worst = max(worst, sp / m["bound"])
            print(f"  {m['name']:<14} median {statistics.median(values):<12.6g} "
                  f"spread {sp:7.2%}  bound {m['bound']:.0%}{flag}")
            print("      " + " ".join(f"{v:.4g}" for v in values))
    print(f"\nworst spread / bound: {worst:.2f}")


def determinism(bench, workloads, runs, repeat, seed0):
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] in ("count", "bytes")]
    for w in workloads:
        by_seed = {}
        for i in range(runs):
            seed = seed0 + i
            by_seed[seed] = [run(bench["command"], w, seed, bench["run_seconds"], 1)
                             for _ in range(repeat if i == 0 else 1)]
        print(f"\n{w} ({runs} seeds, first seed {repeat}x)")
        for name in counts:
            per_seed = {s: [r[name] for r in rs] for s, rs in by_seed.items()}
            every = [v for vs in per_seed.values() for v in vs]
            if len(set(every)) == 1:
                verdict = "exact across seeds"
            elif all(len(set(vs)) == 1 for vs in per_seed.values()):
                verdict = "exact per seed"
            else:
                verdict = "VARIES"
            print(f"  {name:<24} {verdict:<20} {sorted(set(every))[:4]}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--repeat", type=int, default=2, help="traced runs of the first seed")
    p.add_argument("--seed", type=int, default=1, help="first seed")
    p.add_argument("--workloads", default="", help="comma-separated; default all")
    p.add_argument("--trace", action="store_true", help="check counter determinism")
    args = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w for w in args.workloads.split(",") if w] or [w["name"] for w in bench["workloads"]]
    if args.trace:
        determinism(bench, workloads, args.runs, args.repeat, args.seed)
    else:
        steadiness(bench, workloads, args.runs, args.seed)


if __name__ == "__main__":
    main()
