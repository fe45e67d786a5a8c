#!/usr/bin/env python3
"""The repository benchmark: build perfbench_runner, run one workload, print
its metrics.

    python3 perfbench/run.py --workload frame_local|serve_loopback|stream_video
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding BENCHMARK.json).
The first run configures and builds the runner and the tmhls library into
.bench_build/. Human-readable tables go to stderr; stdout ends with two
JSON lines: a full record (host fingerprint, sample counts, failure
breakdown, tracing overhead) and, last, the result object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports every
end-to-end metric of BENCHMARK.json, --trace 1 every per-layer metric.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402  (the sibling module; path set above)

WORKLOADS = ("frame_local", "serve_loopback", "stream_video")
BUILD_DIR = ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 165


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root):
    """Configure (once) and build the runner; returns its path."""
    build_dir = os.path.join(root, BUILD_DIR)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr, check=True,
            timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_runner",
         "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, check=True,
        timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench_runner")


def run_runner(runner, args):
    proc = subprocess.run(
        [runner, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_runner exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def table(rows, header):
    widths = [max(len(str(r[i])) for r in rows + [header])
              for i in range(len(header))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(header, widths))]
    lines += ["  ".join(str(c).ljust(w) for c, w in zip(r, widths))
              for r in rows]
    return "\n".join(lines)


def fmt(v):
    return f"{v:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.seed %= 2 ** 64
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be in [1, 120]")

    root = os.path.dirname(HERE)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("perfbench: no tmhls sources next to perfbench/ "
            "(CMakeLists.txt, src/); nothing to benchmark")
        return 2

    try:
        runner = build(root)
        run = run_runner(runner, args)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1

    correct, attempted, failed = stats.outcome(run)
    record = {
        "record": "perfbench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": run["host"],
        "failed_share": failed / attempted if attempted else 1.0,
        "failures": {k: sum(p[k] for p in run["passes"])
                     for k in ("mismatches", "errors", "timeouts", "shed",
                               "degraded", "rung_switches")},
        "passes": [{"workload": p["workload"], "traced": p["traced"],
                    "window_s": p["window_s"], "attempted": p["attempted"],
                    "latency_samples": len(p["latency_s"])}
                   for p in run["passes"]],
    }
    try:
        if args.trace == 0:
            metrics = stats.end_to_end(run)
            spec = stats.END_TO_END
        else:
            metrics, untraced, traced = stats.per_layer(run)
            spec = stats.PER_LAYER
            record["untraced"] = untraced
            record["traced"] = traced
    except (stats.TooFewSamples, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1
    record["metrics"] = metrics

    host = run["host"]
    log(f"\nperfbench {args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} | nproc={host['nproc']} "
        f"cpu={host['cpu']} | {host['compiler']} {host['build_type']}")
    log(table([[p["workload"], "traced" if p["traced"] else "untraced",
                fmt(p["window_s"]), p["attempted"], p["latency_samples"]]
               for p in record["passes"]],
              ["pass", "mode", "window s", "ops", "latency samples"]))
    log(f"failed_share {record['failed_share']:.4g} "
        f"({failed}/{attempted}) {record['failures']}")
    log(table([[name, fmt(metrics[name]), spec[name][0]] for name in spec],
              ["metric", "value", "unit"]))
    if args.trace == 1:
        log("tracing overhead (untraced vs traced pass of "
            f"{args.workload}):")
        log(table([[name, fmt(untraced[name]), fmt(traced[name])]
                   for name in untraced],
                  ["metric", "untraced", "traced"]))

    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": spec[name][0]}
                    for name in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
