#!/usr/bin/env python3
"""A/B the repository benchmark: a parent and a change in alternating pairs.

    python3 tools/perf_ab.py --parent REV [--change REV|.] --scratch DIR
                             --workload W [--workload W ...] --pairs N
                             --first-seed S [--claim WORKLOAD:METRIC] --title TEXT
                             --out BENCH_name.json

Each side is exported from git into its own tree under DIR (`git archive`
of a revision; `.` takes the working tree's tracked and unignored files),
so both build from their own sources with perfbench/run.py, which this
script calls and never edits. Every run lasts BENCHMARK.json's
run_seconds, so all BENCH_*.json files compare. Pair i runs seed S + i on both sides, the
parent first on even pairs and the change first on odd ones. Around every
run the host's steal and idle shares are read from /proc/stat: a shared
host that is busy elsewhere moves latency, so pairs are only comparable
at similar steal.

The output file is rewritten after every pair. Per workload it holds
every run (metrics, correctness, steal), the operations each side
attempted and failed and, per end-to-end metric of BENCHMARK.json, both
medians, both inter-quartile distances, the ratio, the pairs the change
won (over every pair run: a pair with a run that reported nothing is a
loss) and whether the change stays within the metric's bound. A metric
whose runs spread wider than its bound (either side's inter-quartile
distance above bound x the parent's median) is unresolved, with no
bound verdict, unless every change run beats every parent run. A claimed
metric holds when the change wins at least 9 of 10 pairs, its median
beats the parent's by more than the parent's inter-quartile distance and
the change fails no more operations than the parent. The statistics
are perfbench/stats.py's.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import stats  # noqa: E402  (perfbench/stats.py; path set above)

# A claimed metric must win this share of pairs.
CLAIM_WIN_SHARE = 0.9


def cpu_times():
    """(steal, idle, total) jiffies of the host's `cpu` line."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    return fields[7], fields[3] + fields[4], sum(fields)


def export(rev, dest):
    """A fresh tree of `rev` (or of the working tree for '.') at `dest`."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    if rev == ".":
        files = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others",
             "--exclude-standard"], cwd=ROOT, check=True,
            stdout=subprocess.PIPE).stdout.split(b"\0")
        for name in filter(None, (f.decode() for f in files)):
            src = os.path.join(ROOT, name)
            if os.path.isfile(src):
                os.makedirs(os.path.dirname(os.path.join(dest, name)),
                            exist_ok=True)
                shutil.copy2(src, os.path.join(dest, name))
        return
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run_once(tree, workload, seed, seconds):
    """One perfbench/run.py run in `tree`, with the host's steal around it."""
    steal0, idle0, total0 = cpu_times()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    steal1, idle1, total1 = cpu_times()
    elapsed = max(1, total1 - total0)
    run = {"steal_pct": round(100.0 * (steal1 - steal0) / elapsed, 2),
           "idle_pct": round(100.0 * (idle1 - idle0) / elapsed, 1),
           "exit": proc.returncode}
    if proc.returncode == 0:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        run.update(correct=result["correct"], attempted=result["attempted"],
                   failed=result["failed"],
                   metrics={k: v["value"]
                            for k, v in result["metrics"].items()})
    return run


def failed_ops(pairs, side):
    """(failed, attempted) operations over the runs of `side` that
    reported; a run that reported nothing counts as one failed operation
    of one attempted."""
    failed = attempted = 0
    for p in pairs:
        run = p[side]
        if "metrics" in run:
            failed += run["failed"]
            attempted += run["attempted"]
        else:
            failed += 1
            attempted += 1
    return failed, attempted


def summarize(pairs, bounds, claimed=None):
    """Per end-to-end metric: medians, IQRs, ratio, pair wins, bound check.

    `pairs` are {"parent": run, "change": run}. Medians and IQRs use the
    runs that produced the metric; wins are counted over every pair, and a
    pair where either run lacks the metric is a loss. `bounds` maps a
    metric to its BENCHMARK.json bound; `claimed` names the metric whose
    gain is claimed, if any."""
    parent_failed, _ = failed_ops(pairs, "parent")
    change_failed, _ = failed_ops(pairs, "change")
    fails_no_more = change_failed <= parent_failed
    summary = {}
    for name, (_, better) in stats.END_TO_END.items():
        a = [p["parent"]["metrics"][name] for p in pairs
             if name in p["parent"].get("metrics", {})]
        b = [p["change"]["metrics"][name] for p in pairs
             if name in p["change"].get("metrics", {})]
        if len(a) < 2 or len(b) < 2:
            continue
        ma, mb = stats.median(a), stats.median(b)
        qa, qb = stats.quartiles(a), stats.quartiles(b)
        iqr_a, iqr_b = qa[2] - qa[0], qb[2] - qb[0]
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(1 for p in pairs
                   if name in p["parent"].get("metrics", {})
                   and name in p["change"].get("metrics", {})
                   and sign * (p["change"]["metrics"][name]
                               - p["parent"]["metrics"][name]) > 0)
        worse_by = -sign * (mb - ma) / ma if ma else 0.0
        bound = bounds.get(name)
        every_run_better = (min(sign * y for y in b)
                            > max(sign * x for x in a))
        resolved = (bound is None or every_run_better
                    or max(iqr_a, iqr_b) <= bound * abs(ma))
        entry = {
            "parent_median": round(ma, 4), "change_median": round(mb, 4),
            "ratio": round(mb / ma, 4) if ma else None,
            "parent_iqr": round(iqr_a, 4),
            "change_iqr": round(iqr_b, 4),
            "wins": f"{wins}/{len(pairs)}",
            "bound": bound,
            "change_worse_by": round(worse_by, 4),
            "resolved": resolved,
            "within_bound": (None if not resolved
                             else bound is None or worse_by <= bound),
        }
        if name == claimed:
            entry["claim_holds"] = (
                wins >= CLAIM_WIN_SHARE * len(pairs)
                and sign * (mb - ma) > iqr_a
                and fails_no_more)
        summary[name] = entry
    return summary


def workload_block(workload, pairs, seconds, bounds, claimed):
    runs = [p[side] for p in pairs for side in ("parent", "change")]
    steal = [r["steal_pct"] for r in runs]
    return {
        "workload": workload, "pairs": len(pairs), "seconds": seconds,
        "trace": 0,
        "steal_pct_range": [min(steal), max(steal)] if steal else None,
        "all_correct": all(r.get("correct") is True and r.get("failed") == 0
                           for r in runs),
        "failed_of_attempted": {side: list(failed_ops(pairs, side))
                                for side in ("parent", "change")},
        "summary": summarize(pairs, bounds, claimed),
        "per_pair": pairs,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default=".")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--workload", action="append", required=True,
                        choices=("frame_local", "serve_loopback",
                                 "stream_video"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--claim", default="",
                        help="WORKLOAD:METRIC whose gain is claimed")
    parser.add_argument("--title", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    claim_workload, _, claim_metric = args.claim.partition(":")

    trees = {"parent": os.path.join(args.scratch, "parent"),
             "change": os.path.join(args.scratch, "change")}
    export(args.parent, trees["parent"])
    export(args.change, trees["change"])
    parent_rev = subprocess.run(
        ["git", "rev-parse", "--short", args.parent], cwd=ROOT, check=True,
        stdout=subprocess.PIPE, text=True).stdout.strip()

    out = {
        "change": args.title,
        "parent": parent_rev,
        "tool": "tools/perf_ab.py",
        "method": (f"perfbench/run.py --seconds {seconds} --trace 0 in "
                   f"exported parent ({parent_rev}) and change trees, "
                   "alternating which side runs first; seeds "
                   f"{args.first_seed}-{args.first_seed + args.pairs - 1} "
                   "per workload; steal and idle from /proc/stat around "
                   "each run."),
        "claim": {"workload": claim_workload or None,
                  "metric": claim_metric or None},
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            pair = {"pair": i, "seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds)
            pairs.append(pair)
            claimed = claim_metric if workload == claim_workload else None
            out[workload] = workload_block(workload, pairs, seconds, bounds,
                                           claimed)
            with open(args.out, "w") as f:
                json.dump(out, f, indent=1)
                f.write("\n")
            print(f"{workload} pair {i} seed {seed}: " + " | ".join(
                f"{side} steal {pair[side]['steal_pct']}% " + " ".join(
                    f"{k}={v:.4g}"
                    for k, v in pair[side].get("metrics", {}).items())
                for side in ("parent", "change")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
