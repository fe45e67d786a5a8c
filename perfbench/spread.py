#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve_loopback [--runs 10]
                                [--first-seed 1] [--seconds S] [--trace 0]

For every metric: the median of the runs, the quartiles, and the spread
(q3 - q1) / median, next to the metric's bound from BENCHMARK.json. A
benchmark is steady when each end-to-end spread other than setup_s stays
within its bound; aim for a third of it. Run from the checkout root.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in
              bench["end_to_end"] + bench["per_layer"]}

    values = {}
    failed_runs = 0
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True)
        if proc.returncode != 0:
            failed_runs += 1
            print(f"seed {seed}: exit {proc.returncode}", flush=True)
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " +
              " ".join(f"{k}={v['value']:.4g}"
                       for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}: {args.runs - failed_runs}/{args.runs} runs")
    print(f"{'metric':34} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>8} {'bound':>6}")
    for name, v in values.items():
        if len(v) < 2:
            continue
        q1, _, q3 = stats.quartiles(v)
        med = stats.median(v)
        share = stats.spread(v) if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:34} {med:10.4g} {q1:10.4g} {q3:10.4g} {share:8.3f} "
              f"{'' if bound is None else bound:>6}")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
