#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

Runs every workload of BENCHMARK.json once per seed with tracing off and
prints, per workload and metric, the median of the runs and the spread: the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound. Run it from the
repository root:

    python3 perfbench/steadiness.py --seeds 10 [--first-seed 1] [--workload NAME] [--raw FILE]

With --compare FIRST SECOND it runs nothing and instead compares two --raw
files: for each metric, how much worse the second set's median is than the
first's, next to the bound a later change is held to.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, stdout=subprocess.PIPE, check=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: not correct: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def compare(bench, first_path, second_path):
    with open(first_path) as f:
        first = json.load(f)
    with open(second_path) as f:
        second = json.load(f)
    print("| workload | metric | first median | second median | second worse by | bound | within bound |")
    print("|---|---|---|---|---|---|---|")
    for w in first:
        if w not in second:
            continue
        for m in bench["end_to_end"]:
            a = statistics.median(r[m["name"]] for r in first[w])
            b = statistics.median(r[m["name"]] for r in second[w])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            ok = "yes" if worse <= m["bound"] else "no"
            print(f"| {w} | {m['name']} | {a:.6g} | {b:.6g} | {worse:+.2%} | {m['bound']:.0%} | {ok} |")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--raw", help="also write every run's metrics to this JSON file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if opts.compare:
        compare(bench, *opts.compare)
        return
    names = opts.workload or [w["name"] for w in bench["workloads"]]
    raw = {}
    print("| workload | metric | median | spread | bound | spread < bound/3 |")
    print("|---|---|---|---|---|---|")
    for w in names:
        runs = [run_once(bench["command"], w, s, bench["run_seconds"])
                for s in range(opts.first_seed, opts.first_seed + opts.seeds)]
        raw[w] = runs
        for m in bench["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = "yes" if spread < m["bound"] / 3 else "no"
            print(f"| {w} | {m['name']} | {med:.6g} {m['unit']} | {spread:.2%} | {m['bound']:.0%} | {ok} |",
                  flush=True)
    if opts.raw:
        with open(opts.raw, "w") as f:
            json.dump(raw, f, indent=1)


if __name__ == "__main__":
    main()
