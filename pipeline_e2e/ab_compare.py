#!/usr/bin/env python3
"""A/B-compare two checkouts with the pipeline_e2e benchmark.

    python3 pipeline_e2e/ab_compare.py --parent ../wfbn-parent --change . \
        [--pairs 10] [--workloads alarm-learn,serve-ingest] [--seconds 25]

Each side is a source checkout holding BENCHMARK.json; the benchmark runs
there with the side's own `command` (which builds into the side's
.bench_build on first use). Pair i runs both sides on seed --seed-base + i,
alternating which side goes first. For every end-to-end metric and workload
the verdict follows the rule for claiming a gain in a small sandbox:

  gain        the change wins at least 9/10 of the pairs (ties count for
              neither) and the medians differ by more than the parent's own
              spread (q3 - q1 of its runs);
  unresolved  no gain, and either side's spread (IQR / median) is wider than
              the metric's bound, unless every change run beats every parent
              run;
  regression  the change's median is worse than the parent's by more than
              the bound;
  within bound  otherwise.

Bounds, directions and the run length come from the change side's
BENCHMARK.json. A gain does not count when the change failed more
operations than the parent. Exits 1 when any metric regressed.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys


def load_benchmark(side):
    with open(os.path.join(side, "BENCHMARK.json")) as f:
        return json.load(f)


def run(side, bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=side, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{side}: {workload} seed {seed} exited {out.returncode}\n"
                           f"{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(metric, parent, change, parent_failed, change_failed):
    better = metric["better"]
    bound = metric["bound"]
    sign = 1.0 if better == "lower" else -1.0  # > 0: the change is better
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (p_med - c_med)
    spread = max((p_q3 - p_q1) / p_med if p_med else math.inf,
                 (c_q3 - c_q1) / c_med if c_med else math.inf)
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if (wins >= math.ceil(0.9 * len(parent)) and gap > p_q3 - p_q1
            and change_failed <= parent_failed):
        result = "gain"
    elif spread > bound and not all_better:
        result = "unresolved"
    elif all_better:
        result = "better (every run)"
    elif -gap > bound * abs(p_med):
        result = "regression"
    else:
        result = "within bound"
    return {"wins": wins, "parent": (p_med, p_q1, p_q3), "change": (c_med, c_q1, c_q3),
            "spread": spread, "verdict": result}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout directory")
    parser.add_argument("--change", required=True, help="change checkout directory")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", default="", help="comma list (default: all)")
    parser.add_argument("--seconds", type=float, default=0,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--seed-base", type=int, default=1000)
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("a claim needs at least 10 pairs")

    bench = load_benchmark(args.change)
    if load_benchmark(args.parent) != bench:
        print("warning: BENCHMARK.json differs between the sides; the change's is used",
              file=sys.stderr)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    sides = {"parent": args.parent, "change": args.change}

    regressed = False
    for workload in workloads:
        values = {side: {m["name"]: [] for m in bench["end_to_end"]} for side in sides}
        failed = {side: 0 for side in sides}
        for i in range(args.pairs):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                result = run(sides[side], bench, workload, args.seed_base + i, seconds)
                failed[side] += result["failed"]
                for name, v in result["metrics"].items():
                    if name in values[side]:
                        values[side][name].append(v["value"])
            print(f"  {workload}: pair {i + 1}/{args.pairs} done", file=sys.stderr)
        print(f"\n== {workload}  ({args.pairs} pairs, {seconds:g} s runs; failed ops: "
              f"parent {failed['parent']}, change {failed['change']})")
        print(f"  {'metric':20s} {'parent median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} {'wins':>6s} {'spread':>7s} {'bound':>6s}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            v = verdict(metric, values["parent"][name], values["change"][name],
                        failed["parent"], failed["change"])
            regressed = regressed or v["verdict"] == "regression"
            fmt = lambda t: f"{t[0]:.5g} [{t[1]:.5g}, {t[2]:.5g}]"
            print(f"  {name:20s} {fmt(v['parent']):34s} {fmt(v['change']):34s} "
                  f"{v['wins']:>3d}/{args.pairs:<2d} {v['spread']:7.3f} {metric['bound']:6.3f}"
                  f"  {v['verdict']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
