#!/usr/bin/env python3
"""Compare two BENCH_*.json files and fail on regressions.

Every benchmark binary in bench/ writes a flat JSON object of the form

    {"bench": "<name>", "schema_version": 1, "<metric>": <number>, ...}

This script has two modes:

  bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]
      Diff the numeric metrics of two runs of the same benchmark. A metric
      is a regression when it moves in its "worse" direction by more than
      the threshold fraction (default 15%). Exits 1 if any metric
      regressed, 2 on malformed input, when the two files carry different
      schema_versions (a key may keep its name across versions but time
      another arm), or when they come from different hosts: their
      "simd_table" or "hardware_concurrency" stamps differ (a field one
      file lacks counts as different). A
      *missing* baseline is not an
      error: the current run is recorded as the new baseline and the
      script exits 0 — first runs on a fresh checkout (or after a bench
      gains metrics) seed the baseline instead of failing CI. A baseline
      that exists but does not parse still exits 2.

  bench_compare.py --schema FILE.json [FILE.json ...]
      Validate that each file parses, carries the required keys
      ("bench", "schema_version"), and that every metric value is a
      finite number (or bool/string metadata). When the file embeds an
      obs::MetricRegistry snapshot under "metrics", its shape is checked
      too: objects named "counters"/"gauges"/"histograms", counters are
      non-negative integers, gauges finite numbers, and each histogram
      carries finite count/p50/p95/p99/mean. Exits 2 on any violation.
      Used by tier1.sh as a cheap smoke gate without needing a baseline.
      Benches with known schemas get extra checks: an "inference_path"
      file at schema_version >= 2 must carry the SIMD-dispatch arm
      (simd_table, *_scalar_ns_op, *_simd_speedup), at 3 and 4 the fusion
      arm (*_fused_ns_op, *_fused_speedup), at >= 4 the host's
      hardware_concurrency and at >= 5 the explicit arm
      (*_explicit_ns_op, topk_qps). (Schema 4 dropped the int8 serving
      arm and schema 5 the graph-free and fused arms, which earlier files
      still carry.)

      Files ending in .ndjson are validated as PA_OBS_TIMESERIES dumps
      instead (schema "pa.timeseries.v1", one object per line): seq must
      be strictly increasing, ts_ms/uptime_ms/dropped monotonic
      non-decreasing, counter deltas non-negative integers, gauges finite,
      histogram digests finite.

Metric direction is inferred from the key name:
  lower is better:  *_ns_op, *_seconds, *_micros, *_ms
  higher is better: *_qps, *speedup*, *_rate, hr*, mrr*
Keys matching neither family are reported but never gate.
"""

import argparse
import json
import math
import os
import shutil
import sys

LOWER_BETTER = ("_ns_op", "_seconds", "_micros", "_ms")
HIGHER_BETTER = ("_qps", "speedup", "_rate")
HIGHER_PREFIXES = ("hr", "mrr")

REQUIRED_KEYS = ("bench", "schema_version")

# The host stamps compare mode requires to match before it diffs two files.
HOST_STAMP_KEYS = ("simd_table", "hardware_concurrency")

# Per-bench schema knowledge: keys a given (bench, schema_version) pair must
# carry, beyond the generic finite-metric checks. inference_path grew the
# SIMD-dispatch arm in schema_version 2.
INFERENCE_PATH_V2_KEYS = (
    "simd_table",
    "lstm_forward_scalar_ns_op",
    "lstm_forward_simd_speedup",
    "st_clstm_forward_scalar_ns_op",
    "st_clstm_forward_simd_speedup",
)

# inference_path carried the operator-fusion arm in schema_versions 3 and 4:
# `nograph` pins fusion off (comparable with v2 history) and the fused arm
# runs the cells' explicit fused forwards;
# *_fused_speedup = nograph_ns / fused_ns.
INFERENCE_PATH_V3_KEYS = (
    "fusion_enabled",
    "lstm_forward_fused_ns_op",
    "lstm_forward_fused_speedup",
    "st_clstm_forward_fused_ns_op",
    "st_clstm_forward_fused_speedup",
    "lstm_forward_h128_fused_ns_op",
    "lstm_forward_h128_fused_speedup",
)

# inference_path dropped the int8 serving arm and stamped the host's core
# count beside simd_table in schema_version 4.
INFERENCE_PATH_V4_KEYS = ("hardware_concurrency",)

# inference_path has one inference arm in schema_version 5: `explicit`
# steps flat state through the cells' ForwardRows, timed against the graph
# Forward (*_speedup = graph_ns / explicit_ns) and, pinned to the scalar
# table, against itself (*_simd_speedup = scalar_ns / explicit_ns). The
# graph-free, fused and pool fields of schemas 3 and 4 are gone.
INFERENCE_PATH_V5_KEYS = (
    "lstm_forward_explicit_ns_op",
    "lstm_forward_speedup",
    "st_clstm_forward_explicit_ns_op",
    "st_clstm_forward_speedup",
    "lstm_forward_h128_explicit_ns_op",
    "topk_qps",
)

# serving grew the sharded-router, networked and overload arms in
# schema_version 2 (bench_serving: ShardedEngine scaling, NdjsonServer
# replay with a live model flip, paced 2x-overload shedding).
SERVING_V2_KEYS = (
    "shards",
    "hardware_threads",
    "single_shard_qps",
    "sharded_qps",
    "shard_speedup",
    "shard_gate",
    "net_qps",
    "net_p99_micros",
    "net_failed",
    "flip_dropped",
    "overload_target_qps",
    "overload_shed",
    "overload_other",
    "overload_p99_micros",
)

# serving grew the request-tracing attribution arm in schema_version 3
# (bench_serving: a frozen topk stream replayed with tracing off/on over one
# connection; scoring must be bit-identical and the tracing-on p99 within
# 5% + 500us of the tracing-off pass).
SERVING_V3_KEYS = (
    "trace_requests",
    "trace_off_p50_micros",
    "trace_off_p99_micros",
    "trace_on_p50_micros",
    "trace_on_p99_micros",
    "trace_overhead_ratio",
    "trace_gate",
    "trace_mismatches",
    "trace_echo_missing",
    "trace_captured",
)


def direction(key):
    """Returns -1 (lower is better), +1 (higher is better), or 0 (neutral)."""
    lk = key.lower()
    if lk.endswith(LOWER_BETTER):
        return -1
    if any(tok in lk for tok in HIGHER_BETTER) or lk.startswith(HIGHER_PREFIXES):
        return +1
    return 0


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict):
        print(f"bench_compare: {path}: top level must be an object", file=sys.stderr)
        sys.exit(2)
    return doc


def numeric_metrics(doc):
    out = {}
    for key, value in doc.items():
        # bool is an int subclass in Python; treat it as metadata, not a metric.
        if isinstance(value, bool) or key in REQUIRED_KEYS:
            continue
        if isinstance(value, (int, float)):
            out[key] = float(value)
    return out


HISTOGRAM_FIELDS = ("count", "p50", "p95", "p99", "mean")


def check_registry_snapshot(snapshot):
    """Problems (possibly none) with an embedded obs::MetricRegistry dump."""
    problems = []
    if not isinstance(snapshot, dict):
        return ["'metrics' must be an object"]
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(snapshot.get(section), dict):
            problems.append(f"'metrics.{section}' missing or not an object")
    for name, value in snapshot.get("counters", {}).items() \
            if isinstance(snapshot.get("counters"), dict) else []:
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            problems.append(
                f"counter '{name}' must be a non-negative integer ({value!r})")
    for name, value in snapshot.get("gauges", {}).items() \
            if isinstance(snapshot.get("gauges"), dict) else []:
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"gauge '{name}' must be finite ({value!r})")
    histograms = snapshot.get("histograms")
    if isinstance(histograms, dict):
        for name, digest in histograms.items():
            if not isinstance(digest, dict):
                problems.append(f"histogram '{name}' must be an object")
                continue
            for field in HISTOGRAM_FIELDS:
                value = digest.get(field)
                if isinstance(value, bool) or \
                        not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    problems.append(f"histogram '{name}.{field}' must be "
                                    f"finite ({value!r})")
    return problems


TIMESERIES_SCHEMA = "pa.timeseries.v1"


def check_timeseries(path):
    """Problems (possibly none) with a PA_OBS_TIMESERIES NDJSON dump."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        return [f"cannot read: {e}"]
    lines = text.splitlines()
    # The sampler is stopped by process exit, so the very last line may be
    # cut mid-write. Only a line missing its terminating newline gets that
    # benefit of the doubt.
    if lines and not text.endswith("\n"):
        lines.pop()
    problems = []
    prev = None  # (seq, ts_ms, uptime_ms, dropped)
    samples = 0
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            problems.append(f"line {lineno}: not JSON: {e}")
            continue
        if not isinstance(doc, dict):
            problems.append(f"line {lineno}: not an object")
            continue
        samples += 1
        if doc.get("schema") != TIMESERIES_SCHEMA:
            problems.append(f"line {lineno}: 'schema' must be "
                            f"'{TIMESERIES_SCHEMA}' ({doc.get('schema')!r})")
        fields = {}
        for key in ("seq", "ts_ms", "uptime_ms", "dropped"):
            value = doc.get(key)
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 0:
                problems.append(f"line {lineno}: '{key}' must be a "
                                f"non-negative integer ({value!r})")
                value = None
            fields[key] = value
        if prev is not None and None not in fields.values():
            if fields["seq"] <= prev[0]:
                problems.append(f"line {lineno}: seq not strictly increasing "
                                f"({prev[0]} -> {fields['seq']})")
            if fields["ts_ms"] < prev[1]:
                problems.append(f"line {lineno}: ts_ms went backwards "
                                f"({prev[1]} -> {fields['ts_ms']})")
            if fields["uptime_ms"] < prev[2]:
                problems.append(f"line {lineno}: uptime_ms went backwards "
                                f"({prev[2]} -> {fields['uptime_ms']})")
            if fields["dropped"] < prev[3]:
                problems.append(f"line {lineno}: dropped went backwards "
                                f"({prev[3]} -> {fields['dropped']})")
        if None not in fields.values():
            prev = (fields["seq"], fields["ts_ms"], fields["uptime_ms"],
                    fields["dropped"])
        # Each line carries a registry snapshot body: counters are per-tick
        # deltas but still non-negative integers, so the snapshot checker
        # applies as-is.
        for p in check_registry_snapshot(
                {k: doc.get(k) for k in ("counters", "gauges", "histograms")}):
            problems.append(f"line {lineno}: {p.replace('metrics.', '')}")
    if samples == 0:
        problems.append("no samples")
    return problems


def check_schema(paths):
    failures = 0
    for path in paths:
        if path.endswith(".ndjson"):
            problems = check_timeseries(path)
            if problems:
                failures += 1
                for p in problems:
                    print(f"bench_compare: {path}: {p}", file=sys.stderr)
            else:
                with open(path, "r", encoding="utf-8") as f:
                    n = sum(1 for line in f if line.strip())
                print(f"{path}: OK ({TIMESERIES_SCHEMA}, {n} samples)")
            continue
        doc = load(path)
        problems = []
        for key in REQUIRED_KEYS:
            if key not in doc:
                problems.append(f"missing required key '{key}'")
        if not isinstance(doc.get("bench", ""), str) or not doc.get("bench"):
            problems.append("'bench' must be a non-empty string")
        if not isinstance(doc.get("schema_version", 0), int):
            problems.append("'schema_version' must be an integer")
        metrics = numeric_metrics(doc)
        if not metrics:
            problems.append("no numeric metrics found")
        for key, value in metrics.items():
            if not math.isfinite(value):
                problems.append(f"metric '{key}' is not finite ({value})")
        if "metrics" in doc:
            problems.extend(check_registry_snapshot(doc["metrics"]))
        if doc.get("bench") == "inference_path" and \
                isinstance(doc.get("schema_version"), int) and \
                doc["schema_version"] >= 2:
            for key in INFERENCE_PATH_V2_KEYS:
                if key not in doc:
                    problems.append(f"inference_path v2 missing '{key}'")
            if not isinstance(doc.get("simd_table", ""), str) \
                    or not doc.get("simd_table"):
                problems.append("'simd_table' must be a non-empty string")
        if doc.get("bench") == "inference_path" and \
                isinstance(doc.get("schema_version"), int) and \
                3 <= doc["schema_version"] < 5:
            for key in INFERENCE_PATH_V3_KEYS:
                if key not in doc:
                    problems.append(f"inference_path v3 missing '{key}'")
            if not isinstance(doc.get("fusion_enabled"), bool):
                problems.append("'fusion_enabled' must be a boolean")
        if doc.get("bench") == "inference_path" and \
                isinstance(doc.get("schema_version"), int) and \
                doc["schema_version"] >= 4:
            for key in INFERENCE_PATH_V4_KEYS:
                if key not in doc:
                    problems.append(f"inference_path v4 missing '{key}'")
            cores = doc.get("hardware_concurrency")
            if isinstance(cores, bool) or not isinstance(cores, int) \
                    or cores < 0:
                problems.append("'hardware_concurrency' must be a "
                                f"non-negative integer ({cores!r})")
        if doc.get("bench") == "inference_path" and \
                isinstance(doc.get("schema_version"), int) and \
                doc["schema_version"] >= 5:
            for key in INFERENCE_PATH_V5_KEYS:
                if key not in doc:
                    problems.append(f"inference_path v5 missing '{key}'")
        if doc.get("bench") == "serving" and \
                isinstance(doc.get("schema_version"), int) and \
                doc["schema_version"] >= 2:
            for key in SERVING_V2_KEYS:
                if key not in doc:
                    problems.append(f"serving v2 missing '{key}'")
            if not isinstance(doc.get("shard_gate", ""), str) \
                    or not doc.get("shard_gate"):
                problems.append("'shard_gate' must be a non-empty string")
            elif doc["shard_gate"] == "fail":
                problems.append("'shard_gate' recorded a failed speedup gate")
            # Structural invariants that hold in smoke and full runs alike:
            # the flip must not drop requests, and every non-ok response in
            # the overload arm must carry a typed code.
            for key in ("flip_dropped", "net_failed", "overload_other"):
                value = doc.get(key)
                if isinstance(value, (int, float)) and \
                        not isinstance(value, bool) and value != 0:
                    problems.append(f"'{key}' must be 0 ({value})")
        if doc.get("bench") == "serving" and \
                isinstance(doc.get("schema_version"), int) and \
                doc["schema_version"] >= 3:
            for key in SERVING_V3_KEYS:
                if key not in doc:
                    problems.append(f"serving v3 missing '{key}'")
            if not isinstance(doc.get("trace_gate", ""), str) \
                    or not doc.get("trace_gate"):
                problems.append("'trace_gate' must be a non-empty string")
            elif doc["trace_gate"] == "fail":
                problems.append("'trace_gate' recorded a failed overhead gate")
            # Structural invariants, smoke or full: tracing must never
            # change scoring output, and every tracing-on response carries
            # the trace id echo.
            for key in ("trace_mismatches", "trace_echo_missing"):
                value = doc.get(key)
                if isinstance(value, (int, float)) and \
                        not isinstance(value, bool) and value != 0:
                    problems.append(f"'{key}' must be 0 ({value})")
            captured = doc.get("trace_captured")
            if isinstance(captured, (int, float)) and \
                    not isinstance(captured, bool) and captured <= 0:
                problems.append(
                    f"'trace_captured' must be positive ({captured})")
        if problems:
            failures += 1
            for p in problems:
                print(f"bench_compare: {path}: {p}", file=sys.stderr)
        else:
            print(f"{path}: OK ({doc['bench']}, schema_version "
                  f"{doc['schema_version']}, {len(metrics)} metrics)")
    return 2 if failures else 0


def compare(baseline_path, current_path, threshold):
    current = load(current_path)
    if not os.path.exists(baseline_path):
        # First run on this checkout (or the bench is new): nothing to gate
        # against. Record the current run so the *next* run has a baseline.
        shutil.copyfile(current_path, baseline_path)
        print(f"bench_compare: no baseline at {baseline_path}; recorded "
              f"current run ({current.get('bench')}) as the new baseline")
        return 0
    baseline = load(baseline_path)
    if baseline.get("bench") != current.get("bench"):
        print(f"bench_compare: benchmark mismatch: {baseline.get('bench')!r} "
              f"vs {current.get('bench')!r}", file=sys.stderr)
        return 2
    if baseline.get("schema_version") != current.get("schema_version"):
        print(f"bench_compare: schema mismatch: schema_version "
              f"{baseline.get('schema_version')!r} vs "
              f"{current.get('schema_version')!r}; refusing to diff runs "
              f"whose keys may time different arms", file=sys.stderr)
        return 2
    for key in HOST_STAMP_KEYS:
        if baseline.get(key) != current.get(key):
            print(f"bench_compare: host mismatch: {key} "
                  f"{baseline.get(key)!r} vs {current.get(key)!r}; "
                  f"refusing to diff runs from different hosts",
                  file=sys.stderr)
            return 2
    if bool(baseline.get("smoke")) != bool(current.get("smoke")):
        # A smoke run shrinks the workload, so its numbers are not
        # comparable with a full-run baseline (or vice versa). Report and
        # pass instead of gating apples against oranges.
        print(f"bench_compare: smoke mismatch (baseline smoke="
              f"{bool(baseline.get('smoke'))}, current smoke="
              f"{bool(current.get('smoke'))}); comparison skipped")
        return 0

    base_metrics = numeric_metrics(baseline)
    cur_metrics = numeric_metrics(current)
    regressions = 0
    print(f"bench: {current.get('bench')}  (threshold {threshold:.0%})")
    for key in sorted(base_metrics):
        if key not in cur_metrics:
            print(f"  {key:<28} dropped from current run", file=sys.stderr)
            regressions += 1
            continue
        old, new = base_metrics[key], cur_metrics[key]
        sign = direction(key)
        if old == 0.0 or sign == 0:
            print(f"  {key:<28} {old:>12.4g} -> {new:>12.4g}  (informational)")
            continue
        # Positive delta = got worse, regardless of metric direction.
        delta = (old - new) / old if sign > 0 else (new - old) / old
        verdict = "ok"
        if delta > threshold:
            verdict = "REGRESSION"
            regressions += 1
        elif delta < -threshold:
            verdict = "improved"
        print(f"  {key:<28} {old:>12.4g} -> {new:>12.4g}  "
              f"{-delta:+8.1%}  {verdict}")
    for key in sorted(set(cur_metrics) - set(base_metrics)):
        print(f"  {key:<28} new metric: {cur_metrics[key]:.4g}")
    if regressions:
        print(f"bench_compare: {regressions} metric(s) regressed more than "
              f"{threshold:.0%}", file=sys.stderr)
        return 1
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+",
                        help="BASELINE CURRENT, or files to --schema check")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="regression tolerance as a fraction (default 0.15)")
    parser.add_argument("--schema", action="store_true",
                        help="validate file structure instead of comparing")
    args = parser.parse_args()

    if args.schema:
        return check_schema(args.files)
    if len(args.files) != 2:
        parser.error("compare mode takes exactly two files: BASELINE CURRENT")
    return compare(args.files[0], args.files[1], args.threshold)


if __name__ == "__main__":
    sys.exit(main())
