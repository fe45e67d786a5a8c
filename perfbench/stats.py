"""Statistics and metric reduction of the repository benchmark.

perfbench_runner prints raw samples (per-op latencies, per-layer spans and
counters); this module turns them into the metrics BENCHMARK.json names.
The rules live here so they can be tested without building anything
(see test_stats.py):

* a median needs at least one sample;
* a percentile is reported only when at least MIN_TAIL samples lie beyond
  it, so a p90 needs >= 100 samples; fewer raises TooFewSamples instead of
  returning a number the run cannot support;
* spread is the inter-quartile distance over the median, with quartiles
  from statistics.quantiles(values, n=4);
* throughput is the median, over consecutive chunks of CHUNK_OPS good
  completions, of chunk size / chunk duration; a second in which the host
  stalls the whole machine moves one chunk, not the figure.
"""

import math
import statistics

MIN_TAIL = 10
CHUNK_OPS = 32

# name -> (unit, better); order is the order results are printed in.
END_TO_END = {
    "frames_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "tonemap.normalize_ms": ("ms", "lower"),
    "tonemap.intensity_ms": ("ms", "lower"),
    "tonemap.masking_ms": ("ms", "lower"),
    "tonemap.adjust_ms": ("ms", "lower"),
    "tonemap.fused_1t_ms": ("ms", "lower"),
    "exec.mask_blur_ms": ("ms", "lower"),
    "exec.mask_blur_1t_ms": ("ms", "lower"),
    "exec.plan_us": ("us", "lower"),
    "transport.encode_request_ms": ("ms", "lower"),
    "transport.checksum_ms": ("ms", "lower"),
    "transport.decode_response_ms": ("ms", "lower"),
    "transport.submit_ms": ("ms", "lower"),
    "transport.overhead_ms": ("ms", "lower"),
    "transport.protocol_errors": ("count", "lower"),
    "serve.queue_ms": ("ms", "lower"),
    "serve.service_ms": ("ms", "lower"),
    "serve.session_builds": ("count", "lower"),
    "serve.rebalanced": ("count", "lower"),
    "image.allocs_per_job": ("1/job", "lower"),
    "image.pool_hit_rate": ("ratio", "higher"),
    "stream.service_ms": ("ms", "lower"),
    "stream.send_ms": ("ms", "lower"),
    "stream.rung_switches": ("count", "lower"),
    "stream.frames_shed": ("count", "lower"),
    "stream.frames_expired": ("count", "lower"),
    "generator.lag_p90_ms": ("ms", "lower"),
    "trace.overhead_frames_per_s_pct": ("%", "lower"),
    "trace.overhead_latency_p50_pct": ("%", "lower"),
    "trace.overhead_latency_p90_pct": ("%", "lower"),
}


class TooFewSamples(ValueError):
    """A statistic was asked of fewer samples than it needs."""


def median(values):
    if not values:
        raise TooFewSamples("median of no samples")
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise TooFewSamples("quartiles need at least 2 samples")
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def percentile(values, q, min_tail=MIN_TAIL):
    """Nearest-rank q-quantile (0 < q < 1), refused unless at least
    `min_tail` samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError("percentile q must be in (0, 1)")
    n = len(values)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < min_tail:
        raise TooFewSamples(
            f"p{round(q * 100)} of {n} samples has {n - rank} beyond it; "
            f"at least {min_tail} are needed")
    return sorted(values)[rank - 1]


def throughput(done_s, chunk=CHUNK_OPS):
    """Completions per second: the median over consecutive chunks of
    `chunk` completions (times in seconds since the window opened; the
    first chunk is timed from the window's start)."""
    times = sorted(done_s)
    chunks = len(times) // chunk
    if chunks < 3:
        raise TooFewSamples(
            f"throughput needs {3 * chunk} completions, got {len(times)}")
    rates = []
    previous = 0.0
    for i in range(1, chunks + 1):
        end = times[i * chunk - 1]
        rates.append(chunk / (end - previous))
        previous = end
    return median(rates)


def pass_metrics(p):
    """frames_per_s and latency percentiles of one timed pass."""
    latency_ms = [s * 1e3 for s in p["latency_s"]]
    return {
        "frames_per_s": throughput(p["done_s"]),
        "latency_p50_ms": median(latency_ms),
        "latency_p90_ms": percentile(latency_ms, 0.9),
    }


def end_to_end(run):
    """Every END_TO_END metric of a --trace 0 runner record."""
    (p,) = run["passes"]
    metrics = pass_metrics(p)
    metrics["setup_s"] = median(p["setup_s"])
    metrics["peak_rss_mb"] = run["peak_rss_kb"] / 1024.0
    return metrics


def tracing_overhead(untraced, traced):
    """Per e2e metric, how much worse (in %) the traced pass read."""
    return {
        "trace.overhead_frames_per_s_pct":
            100.0 * (untraced["frames_per_s"] - traced["frames_per_s"])
            / untraced["frames_per_s"],
        "trace.overhead_latency_p50_pct":
            100.0 * (traced["latency_p50_ms"] - untraced["latency_p50_ms"])
            / untraced["latency_p50_ms"],
        "trace.overhead_latency_p90_pct":
            100.0 * (traced["latency_p90_ms"] - untraced["latency_p90_ms"])
            / untraced["latency_p90_ms"],
    }


def check_overhead_samples(samples):
    """transport.overhead_ms is round trip - queue - service of one
    request; all three come from one steady clock in one process, so a
    negative value is a harness bug."""
    negative = [v for v in samples if v < 0.0]
    if negative:
        raise ValueError(
            f"{len(negative)} negative transport.overhead_ms samples "
            f"(min {min(negative)})")


def per_layer(run):
    """Every PER_LAYER metric of a --trace 1 runner record, plus the
    untraced/traced e2e figures the overhead was computed from."""
    untraced, traced = run["passes"][0], run["passes"][1]
    e2e_untraced = pass_metrics(untraced)
    e2e_traced = pass_metrics(traced)
    samples = run["layers"]["samples"]
    values = run["layers"]["values"]
    check_overhead_samples(samples.get("transport.overhead_ms", []))
    metrics = {}
    for name in PER_LAYER:
        if name.startswith("trace."):
            continue
        if name == "generator.lag_p90_ms":
            metrics[name] = percentile(samples["generator.lag_ms"], 0.9)
        elif name in samples:
            metrics[name] = median(samples[name])
        elif name in values:
            metrics[name] = values[name]
        else:
            raise KeyError(f"runner reported no data for {name}")
    metrics.update(tracing_overhead(e2e_untraced, e2e_traced))
    return metrics, e2e_untraced, e2e_traced


def outcome(run):
    """(correct, attempted, failed) over every pass of a runner record.
    An op fails unless its output arrived at full quality and matched its
    golden; any mismatch anywhere makes the run incorrect."""
    attempted = sum(p["attempted"] for p in run["passes"])
    ok = sum(p["ok"] for p in run["passes"])
    mismatches = sum(p["mismatches"] for p in run["passes"])
    correct = mismatches == 0 and run["probe_mismatches"] == 0
    return correct, attempted, attempted - ok
