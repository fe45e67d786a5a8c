#!/usr/bin/env python3
"""Validate bench JSONL records against the schema in bench/bench_common.hpp.

Every line emitted by the benches (benchkit::JsonRecord) must be one flat
JSON object whose first key is "bench", whose values are strings, ints or
finite floats, and — for the benches named below — which carries that
bench's required keys. CI runs this over the JSONL artifacts the
release-bench job produces, and ctest runs `--self-test` so the validator
itself cannot rot.

Usage:
    tools/check_bench_jsonl.py file.jsonl [more.jsonl ...]
    tools/check_bench_jsonl.py --self-test

Exit status 0 when every record of every file validates, 1 otherwise
(each violation is reported with file and line number).
"""

import json
import sys

# Required keys per bench name, mirroring what the benches emit (see the
# JsonRecord schema comment in bench/bench_common.hpp; the emitters are
# bench_backend_throughput.cpp, bench_serving.cpp and bench_streaming.cpp).
# A bench not listed here is validated against the
# generic rules only, so adding a new bench does not require touching this
# checker — listing it just tightens the gate.
REQUIRED_KEYS = {
    "backend_throughput": [
        "backend", "threads", "width", "height", "taps",
        "seconds_per_frame", "fps", "speedup_vs_single_thread",
        "speedup_vs_separable_float", "speedup_vs_separable_simd",
        "bytes_per_pixel",
    ],
    "serving": [
        "mode", "backend", "threads", "width", "height", "seconds_total",
        "latency_p50_ms", "latency_p99_ms", "allocs_per_job",
        "pool_hit_rate",
    ],
    "streaming": [
        "qos", "backend", "threads", "streams", "frames_per_stream",
        "width", "height", "taps", "fps", "overload_factor",
        "frames_delivered", "frames_shed", "frames_expired", "streams_shed",
        "rung_switches_per_stream", "flicker", "frames_per_second",
        "latency_p99_ms", "allocs_per_job", "pool_hit_rate",
    ],
}

# bench_serving emits record shapes distinguished by "mode"; beyond
# the common serving keys above, each known mode requires its own columns.
# An unknown mode is validated against the common keys only.
SERVING_MODE_KEYS = {
    "jobs": [
        "shards", "jobs_total", "taps", "jobs_per_s", "speedup_vs_1shard",
    ],
    "overload": [
        "shards", "offered_multiplier", "offered", "accepted", "shed",
        "degraded", "expired", "completed", "accept_rate", "deadline_ms",
        "calibrated_service_ms",
    ],
    "pool": [
        "shards", "jobs_total", "taps", "jobs_per_s", "pooled",
        "speedup_vs_unpooled",
    ],
    "autotune": [
        "taps", "mispriored_backend", "initial_backend", "final_backend",
        "converged_after_jobs", "jobs_total", "converged", "bit_identical",
        "observations",
    ],
}

# Cost-model snapshot records (exec::CostModel::save_snapshot, reloaded by
# --calibration / absorb_jsonl): first key "calibration" (the version
# string) instead of "bench", then "host" and a "kind" discriminator. The
# release-bench job round-trips these through this checker before the
# reload step, so the persistence format cannot rot unnoticed.
CALIBRATION_KIND_KEYS = {
    "backend": ["backend", "macs_per_second", "serial_fraction"],
    "pointwise": ["ops_per_second"],
    "plane_bandwidth": ["bytes_per_second"],
    "observation": ["backend", "bucket", "seconds_per_pixel", "samples"],
}


def _reject_constant(value):
    # json.loads calls this for NaN/Infinity/-Infinity, which are not
    # valid JSON; a bench emitting them has produced a non-finite number.
    raise ValueError(f"non-finite number {value!r}")


def _validate_calibration(record):
    """Violations for one cost-model snapshot record (first key is
    already known to be "calibration")."""
    problems = []
    for key, value in record.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            problems.append(
                f'key "{key}": values must be strings or numbers, '
                f"got {type(value).__name__}")
    version = record.get("calibration")
    if not isinstance(version, str) or not version:
        problems.append('"calibration" must be a non-empty version string')
    host = record.get("host")
    if not isinstance(host, str) or not host:
        problems.append('"host" must be a non-empty fingerprint string')
    kind = record.get("kind")
    if kind not in CALIBRATION_KIND_KEYS:
        problems.append(
            f'"kind" must be one of {sorted(CALIBRATION_KIND_KEYS)}, '
            f"got {kind!r}")
        return problems
    missing = [k for k in CALIBRATION_KIND_KEYS[kind] if k not in record]
    if missing:
        problems.append(
            f'calibration kind "{kind}" record missing required key(s): '
            + ", ".join(missing))
    return problems


def validate_line(line):
    """Return a list of violation messages for one JSONL line ('' lines
    are the caller's concern)."""
    try:
        record = json.loads(line, parse_constant=_reject_constant)
    except ValueError as err:
        return [f"not valid JSON: {err}"]
    if not isinstance(record, dict):
        return ["record is not a JSON object"]
    problems = []
    keys = list(record.keys())
    if keys and keys[0] == "calibration":
        return _validate_calibration(record)
    if not keys or keys[0] != "bench":
        problems.append(
            'first key must be "bench" '
            '(or "calibration" for cost-model snapshot records)')
    bench = record.get("bench")
    if not isinstance(bench, str) or not bench:
        problems.append('"bench" must be a non-empty string')
        bench = None
    for key, value in record.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float)):
            problems.append(
                f'key "{key}": values must be strings or numbers, '
                f"got {type(value).__name__}")
        # Non-finite floats never reach here (parse_constant raises), so
        # every numeric value is finite by construction.
    if bench in REQUIRED_KEYS:
        missing = [k for k in REQUIRED_KEYS[bench] if k not in record]
        if missing:
            problems.append(
                f'bench "{bench}" record missing required key(s): '
                + ", ".join(missing))
    if bench == "serving":
        mode = record.get("mode")
        mode_keys = SERVING_MODE_KEYS.get(mode, [])
        missing = [k for k in mode_keys if k not in record]
        if missing:
            problems.append(
                f'serving mode "{mode}" record missing required key(s): '
                + ", ".join(missing))
    return problems


def check_file(path):
    """Validate one file; returns (record_count, violation_count)."""
    records = 0
    violations = 0
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            records += 1
            for problem in validate_line(line):
                violations += 1
                print(f"{path}:{number}: {problem}", file=sys.stderr)
    return records, violations


SELF_TEST_CASES = [
    # (line, expected_valid, label)
    ('{"bench":"serving","mode":"jobs","backend":"separable_simd",'
     '"threads":1,"shards":2,"jobs_total":8,"width":192,"height":192,'
     '"taps":13,"seconds_total":0.5,"jobs_per_s":16.0,"latency_p50_ms":30.0,'
     '"latency_p99_ms":60.1,"speedup_vs_1shard":1.0,"allocs_per_job":0.5,'
     '"pool_hit_rate":0.9}',
     True, "complete serving jobs record"),
    ('{"bench":"serving","mode":"overload","backend":"separable_simd",'
     '"threads":1,"shards":2,"offered_multiplier":2,"offered":16,'
     '"accepted":12,"shed":4,"degraded":3,"expired":2,"completed":10,'
     '"accept_rate":0.75,"deadline_ms":2.4,"calibrated_service_ms":0.6,'
     '"width":192,"height":192,"seconds_total":0.5,"latency_p50_ms":1.0,'
     '"latency_p99_ms":2.2,"allocs_per_job":1.5,"pool_hit_rate":0.8}',
     True, "complete serving overload record"),
    ('{"bench":"serving","mode":"overload","backend":"separable_simd",'
     '"threads":1,"shards":2,"offered":16,"accepted":12,"width":192,'
     '"height":192,"seconds_total":0.5,"latency_p50_ms":1.0,'
     '"latency_p99_ms":2.2,"allocs_per_job":1.5,"pool_hit_rate":0.8}',
     False, "overload record missing shed/degraded/expired keys"),
    ('{"bench":"serving","mode":"some_future_mode","backend":"x",'
     '"threads":1,"width":1,"height":1,"seconds_total":0.5,'
     '"latency_p50_ms":1.0,"latency_p99_ms":2.2,"allocs_per_job":0.0,'
     '"pool_hit_rate":0.0}',
     True, "unknown serving mode passes common serving keys only"),
    ('{"bench":"serving","mode":"jobs","backend":"separable_simd",'
     '"threads":1,"shards":2,"jobs_total":8,"width":192,"height":192,'
     '"taps":13,"seconds_total":0.5,"jobs_per_s":16.0,"latency_p50_ms":30.0,'
     '"latency_p99_ms":60.1,"speedup_vs_1shard":1.0}',
     False, "serving record missing allocs_per_job/pool_hit_rate"),
    ('{"bench":"serving","mode":"pool","backend":"separable_simd",'
     '"threads":1,"shards":2,"jobs_total":16,"width":256,"height":256,'
     '"taps":97,"pooled":1,"seconds_total":0.5,"jobs_per_s":32.0,'
     '"latency_p50_ms":20.0,"latency_p99_ms":40.0,'
     '"speedup_vs_unpooled":1.1,"allocs_per_job":0.3,"pool_hit_rate":0.95}',
     True, "complete serving pool record"),
    ('{"bench":"serving","mode":"pool","backend":"separable_simd",'
     '"threads":1,"shards":2,"jobs_total":16,"width":256,"height":256,'
     '"taps":97,"seconds_total":0.5,"jobs_per_s":32.0,'
     '"latency_p50_ms":20.0,"latency_p99_ms":40.0,"allocs_per_job":8.0,'
     '"pool_hit_rate":0.0}',
     False, "pool record missing pooled/speedup_vs_unpooled keys"),
    ('{"bench":"backend_throughput","backend":"fused_stream","threads":2,'
     '"width":1024,"height":768,"taps":97,"seconds_per_frame":0.01,'
     '"fps":100.0,"speedup_vs_single_thread":1.9,'
     '"speedup_vs_separable_float":11.0,"speedup_vs_separable_simd":1.3,'
     '"bytes_per_pixel":8.0}',
     True, "complete backend_throughput record"),
    ('{"bench":"backend_throughput","backend":"x","threads":1,"width":1,'
     '"height":1,"taps":1,"seconds_per_frame":0.5,"fps":2.0,'
     '"speedup_vs_single_thread":1,"speedup_vs_separable_float":1}',
     False, "backend_throughput record missing simd/traffic keys"),
    ('{"bench":"streaming","qos":"standard","backend":"separable_simd",'
     '"threads":1,"streams":2,"frames_per_stream":48,"width":96,'
     '"height":96,"taps":97,"fps":30.0,"overload_factor":2.0,'
     '"frames_delivered":96,"frames_shed":0,"frames_expired":0,'
     '"streams_shed":0,"rung_switches_per_stream":1.0,"flicker":0.01,'
     '"frames_per_second":250.0,"latency_p99_ms":4.2,'
     '"allocs_per_job":0.2,"pool_hit_rate":0.97}',
     True, "complete streaming record"),
    ('{"bench":"streaming","qos":"standard","backend":"separable_simd",'
     '"threads":1,"streams":2,"frames_per_stream":48,"width":96,'
     '"height":96,"taps":97,"fps":30.0,"overload_factor":2.0,'
     '"frames_delivered":96,"frames_shed":0,"frames_expired":0,'
     '"streams_shed":0,"rung_switches_per_stream":1.0,"flicker":0.01,'
     '"frames_per_second":250.0,"latency_p99_ms":4.2}',
     False, "streaming record missing allocs_per_job/pool_hit_rate"),
    ('{"bench":"streaming","qos":"best_effort","backend":"separable_simd",'
     '"threads":1,"streams":2,"frames_per_stream":48,"width":96,'
     '"height":96,"taps":97,"fps":30.0,"frames_delivered":14}',
     False, "streaming record missing overload/shed/switch keys"),
    ('{"bench":"serving","mode":"autotune","backend":"auto","threads":1,'
     '"width":128,"height":128,"taps":97,'
     '"mispriored_backend":"separable_float",'
     '"initial_backend":"separable_float",'
     '"final_backend":"separable_simd","converged_after_jobs":2,'
     '"jobs_total":24,"converged":1,"bit_identical":1,"observations":22,'
     '"seconds_total":0.1,"latency_p50_ms":2.0,"latency_p99_ms":5.0,'
     '"allocs_per_job":0.5,"pool_hit_rate":0.9}',
     True, "complete serving autotune record"),
    ('{"bench":"serving","mode":"autotune","backend":"auto","threads":1,'
     '"width":128,"height":128,"taps":97,"jobs_total":24,'
     '"seconds_total":0.1,"latency_p50_ms":2.0,"latency_p99_ms":5.0,'
     '"allocs_per_job":0.5,"pool_hit_rate":0.9}',
     False, "autotune record missing convergence keys"),
    ('{"calibration":"1","host":"x86_64-c8","kind":"backend",'
     '"backend":"separable_simd","macs_per_second":8.56e9,'
     '"serial_fraction":0.05}',
     True, "complete calibration backend record"),
    ('{"calibration":"1","host":"x86_64-c8","kind":"observation",'
     '"backend":"fused_stream","bucket":14,'
     '"seconds_per_pixel":1.4e-07,"samples":3}',
     True, "complete calibration observation record"),
    ('{"calibration":"1","host":"x86_64-c8","kind":"pointwise",'
     '"ops_per_second":4e9}',
     True, "complete calibration pointwise record"),
    ('{"calibration":"1","host":"x86_64-c8","kind":"observation",'
     '"backend":"fused_stream"}',
     False, "observation record missing bucket/ewma keys"),
    ('{"calibration":"1","host":"x86_64-c8","kind":"unheard_of"}',
     False, "unknown calibration kind"),
    ('{"calibration":"1","kind":"pointwise","ops_per_second":4e9}',
     False, "calibration record missing host fingerprint"),
    ('{"bench":"some_future_bench","whatever":1.5}',
     True, "unknown bench passes generic rules"),
    ('{"bench":"serving","mode":"jobs"}',
     False, "serving record missing required keys"),
    ('{"backend":"x","bench":"serving"}',
     False, "bench not the first key"),
    ('{"bench":"backend_throughput","backend":"x","threads":1,"width":1,'
     '"height":1,"taps":1,"seconds_per_frame":nan,"fps":1,'
     '"speedup_vs_single_thread":1,"speedup_vs_separable_float":1}',
     False, "non-finite number (bare nan is not JSON)"),
    ('{"bench":"x","nested":{"a":1}}',
     False, "nested values are not flat"),
    ('{"bench":""}', False, "empty bench name"),
    ('[1,2,3]', False, "not an object"),
    ('{"bench":"x",', False, "truncated line"),
]


def self_test():
    failures = 0
    for line, expected_valid, label in SELF_TEST_CASES:
        problems = validate_line(line)
        ok = not problems
        if ok != expected_valid:
            failures += 1
            print(
                f"self-test FAIL [{label}]: expected "
                f"{'valid' if expected_valid else 'invalid'}, got "
                f"{problems or 'no problems'}", file=sys.stderr)
    print(f"self-test: {len(SELF_TEST_CASES)} case(s), "
          f"{failures} failure(s)")
    return 1 if failures else 0


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if argv[1] == "--self-test":
        return self_test()
    total_violations = 0
    for path in argv[1:]:
        records, violations = check_file(path)
        total_violations += violations
        status = "ok" if violations == 0 else f"{violations} violation(s)"
        print(f"{path}: {records} record(s), {status}")
    return 1 if total_violations else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
