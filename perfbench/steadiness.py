#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload in BENCHMARK.json this runs the benchmark command once
per seed, checks that the result line carries exactly the declared metrics
and a correct answer, and reports each metric's median and the distance
between its first and third quartile as a share of the median (the spread
the bounds in BENCHMARK.json are set from). With --rounds N it repeats
the whole set N times and also reports how far each round's medians moved
from the first round's, in the metric's worse direction.

    python3 perfbench/steadiness.py --runs 10 --rounds 3 --out rounds.md
    python3 perfbench/steadiness.py --runs 5 --workloads clustered-analyze

Run it from the repository root.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    declared = bench["per_layer" if trace else "end_to_end"]
    expected = {m["name"] for m in declared}
    if set(result["metrics"]) != expected:
        raise SystemExit(
            f"{workload} seed {seed}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(expected - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - expected)}")
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return result, wall


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else float("inf")


def round_report(bench, names, args, title):
    """One round: every workload on `args.runs` seeds. Returns the report
    lines and each (workload, metric) median."""
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = [
        f"## {title}",
        "",
        f"{args.runs} runs per workload, seeds {args.first_seed}.."
        f"{args.first_seed + args.runs - 1}, {seconds} s each, trace {args.trace}. "
        f"Host: {os.cpu_count()} CPUs, {platform.platform()}. "
        "Spread is (Q3 - Q1) / median over the runs, quartiles as "
        "Python's statistics.quantiles(values, n=4) gives them.",
        "",
    ]
    worst = 0.0
    medians = {}
    for workload in names:
        results, walls = [], []
        for k in range(args.runs):
            seed = args.first_seed + k
            result, wall = run_once(bench, workload, seed, seconds, args.trace)
            results.append(result)
            walls.append(wall)
            print(f"{title}: {workload} seed {seed}: {wall:.1f} s", flush=True)
        report += [
            f"#### {workload}",
            "",
            f"Wall time per run: median {statistics.median(walls):.1f} s, "
            f"max {max(walls):.1f} s.",
            "",
            "| metric | unit | median | spread | bound | spread / bound | values |",
            "|---|---|---|---|---|---|---|",
        ]
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            if len(values) < 2:
                continue
            median, s = spread(values)
            medians[(workload, name)] = median
            bound = bounds.get(name)
            ratio = f"{s / bound:.2f}" if bound and args.trace == 0 else "-"
            if bound and args.trace == 0:
                worst = max(worst, s / bound)
            report.append(
                f"| {name} | {unit} | {median:.6g} | {s:.4f} | "
                f"{bound if bound is not None else '-'} | {ratio} | "
                + " ".join(f"{v:.4g}" for v in values) + " |")
        report.append("")
    report.append(f"Largest spread / bound: {worst:.2f}.")
    report.append("")
    return report, medians


def drift_report(bench, rounds):
    """How far each later round's median moved from the first round's, in
    the metric's worse direction, as a share of the first median."""
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lines = [
        "## Median drift between rounds",
        "",
        "Worsening of each round's median against the first round's, as a "
        "share of the first (negative: better).",
        "",
        "| workload | metric | " + " | ".join(
            f"round {i + 1} median" for i in range(len(rounds)))
        + " | worst drift | bound |",
        "|---|---|" + "---|" * len(rounds) + "---|---|",
    ]
    worst = 0.0
    for key in rounds[0]:
        workload, name = key
        first = rounds[0][key]
        sign = 1 if better.get(name) == "lower" else -1
        drifts = [sign * (r[key] - first) / first for r in rounds[1:] if first]
        drift = max(drifts) if drifts else 0.0
        if name in bounds:
            worst = max(worst, drift / bounds[name])
        lines.append(
            f"| {workload} | {name} | "
            + " | ".join(f"{r[key]:.6g}" for r in rounds)
            + f" | {drift:+.4f} | {bounds.get(name, '-')} |")
    lines += ["", f"Largest drift / bound: {worst:.2f}.", ""]
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]

    report, medians = [], []
    for r in range(args.rounds):
        title = f"Round {chr(ord('A') + r)}" if args.rounds > 1 else "Round"
        lines, m = round_report(bench, names, args, title)
        report += lines
        medians.append(m)
    if args.rounds > 1:
        report += drift_report(bench, medians)
    text = "\n".join(report) + "\n"
    print(text)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)


if __name__ == "__main__":
    main()
