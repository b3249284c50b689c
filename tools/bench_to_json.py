#!/usr/bin/env python3
"""Convert raw bench output to the checked-in BENCH_*.json artifacts.

Two input formats, detected automatically:

  * google-benchmark JSON from bench/micro_kernels -> BENCH_core.json
      ./build/bench/micro_kernels --benchmark_out=gbench.json \
          --benchmark_out_format=json
      python3 tools/bench_to_json.py gbench.json -o BENCH_core.json

  * "suite": "parallel_builders" JSON from bench/speedup_builders
    -> BENCH_parallel.json
      ./build/bench/speedup_builders --threads 1,2,4 --out runs.json
      python3 tools/bench_to_json.py runs.json -o BENCH_parallel.json

  * "suite": "forest_speedup" JSON from bench/forest_speedup
    -> BENCH_forest.json
      ./build/bench/forest_speedup --trees 2,8 --threads 1,2,4 \
          --out forest.json
      python3 tools/bench_to_json.py forest.json -o BENCH_forest.json

  * "suite": "binned_vs_sorted" JSON from bench/binned_vs_sorted
    -> BENCH_binned.json
      ./build/bench/binned_vs_sorted --out binned.json
      python3 tools/bench_to_json.py binned.json -o BENCH_binned.json

  * "suite": "infer_throughput" JSON from bench/infer_throughput
    -> BENCH_infer.json
      ./build/bench/infer_throughput --out infer.json
      python3 tools/bench_to_json.py infer.json -o BENCH_infer.json

  * "suite": "serve_scaling" JSON from bench/serve_scaling
    -> BENCH_serve.json
      ./build/bench/serve_scaling --out serve.json
      python3 tools/bench_to_json.py serve.json -o BENCH_serve.json

  * "suite": "stream_throughput" JSON from bench/stream_throughput
    -> BENCH_stream.json
      ./build/bench/stream_throughput --out stream.json
      python3 tools/bench_to_json.py stream.json -o BENCH_stream.json

Validation mode schema-checks checked-in artifacts instead of converting:

      python3 tools/bench_to_json.py --validate [BENCH_x.json ...]

With no files it globs BENCH_*.json in the current directory. Every file
must parse, carry its suite's required keys, and contain no NaN/Infinity
and no null in a required numeric field; any violation is a hard failure.
A file named like a checked-in artifact (basename BENCH_*.json) must also
carry the suite that belongs at that name -- BENCH_stream.json claiming
"suite": "serve_scaling" is rejected, so an artifact can never be silently
overwritten by the wrong bench's output.

For the kernel suite the output is per-benchmark ns/record (derived from
items_per_second) plus the AoS-vs-SoA / direct-vs-buffered speedup ratios.
Benchmark family names are a contract with bench/micro_kernels.cc -- see the
header comment there before renaming anything.

For the parallel suite the output groups runs by (function, algorithm) and
derives, per thread count, the build-time speedup relative to that
algorithm's threads=1 run plus the wait share
(wait_seconds / (threads * build_seconds)). A missing threads=1 baseline for
any series is an error: speedups would be meaningless. build_seconds is the
median of the bench's repeated builds; build_seconds_iqr is the spread of its
quartiles, and speedup_iqr is the baseline median over the upper and lower
quartiles, the speedup range a quartile build would read.
"""

import argparse
import json
import os
import sys

# (json key, slow family, fast family) -> derived "slow/fast" speedup.
SPEEDUP_PAIRS = [
    ("e_scan_2class_speedup", "EScan/aos_2class", "EScan/soa_2class"),
    ("e_scan_8class_speedup", "EScan/aos_8class", "EScan/soa_8class"),
    ("categorical_tabulate_speedup", "CatTabulate/aos", "CatTabulate/soa"),
    ("split_phase_buffered_speedup", "SplitPhase/direct", "SplitPhase/buffered"),
]

CONTEXT_KEYS = ("date", "host_name", "num_cpus", "mhz_per_cpu",
                "library_build_type")


def ns_per_record(bench):
    ips = bench.get("items_per_second")
    if not ips:
        return None
    return 1e9 / ips


def family_of(name):
    """'EScan/aos_2class/131072/min_time:0.020' -> 'EScan/aos_2class'."""
    parts = name.split("/")
    keep = [parts[0]]
    for part in parts[1:]:
        if part.isdigit() or ":" in part:
            break
        keep.append(part)
    return "/".join(keep)


def convert_kernels(raw, output):
    benchmarks = []
    by_family = {}
    for bench in raw.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        entry = {
            "name": bench["name"],
            "real_time_ns": bench.get("real_time"),
            "cpu_time_ns": bench.get("cpu_time"),
            "items_per_second": bench.get("items_per_second"),
            "ns_per_record": ns_per_record(bench),
        }
        benchmarks.append(entry)
        # Last run of a family wins (largest Arg when sizes ascend).
        by_family[family_of(bench["name"])] = entry

    derived = {}
    for key, slow, fast in SPEEDUP_PAIRS:
        a = by_family.get(slow)
        b = by_family.get(fast)
        if a and b and a["ns_per_record"] and b["ns_per_record"]:
            derived[key] = round(a["ns_per_record"] / b["ns_per_record"], 3)
        else:
            derived[key] = None

    context = raw.get("context", {})
    out = {
        "schema_version": 1,
        "suite": "core_kernels",
        "context": {k: context.get(k) for k in CONTEXT_KEYS},
        "benchmarks": benchmarks,
        "derived": derived,
    }
    with open(output, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote {output} ({len(benchmarks)} benchmarks)")
    missing = [k for k, v in derived.items() if v is None]
    if missing:
        print(f"warning: missing inputs for: {', '.join(missing)}",
              file=sys.stderr)
        return 1
    return 0


def convert_parallel(raw, output):
    series = {}  # (function, algorithm) -> {threads: run}
    for run in raw.get("runs", []):
        key = (run["function"], run["algorithm"])
        series.setdefault(key, {})[run["threads"]] = run

    out_series = []
    errors = []
    for (function, algorithm), by_threads in sorted(series.items()):
        base = by_threads.get(1)
        if base is None or not base.get("build_seconds"):
            errors.append(f"F{function}/{algorithm}: no threads=1 baseline")
            continue
        points = []
        for threads in sorted(by_threads):
            run = by_threads[threads]
            build = run["build_seconds"]
            q1 = run.get("build_seconds_q1", build)
            q3 = run.get("build_seconds_q3", build)
            wait = run.get("wait_seconds", 0.0)
            points.append({
                "threads": threads,
                "build_seconds": round(build, 6),
                "build_seconds_iqr": round(q3 - q1, 6),
                "speedup": round(base["build_seconds"] / build, 3)
                if build else None,
                "speedup_iqr": [round(base["build_seconds"] / q3, 3),
                                round(base["build_seconds"] / q1, 3)]
                if q1 else None,
                "wait_share": round(wait / (threads * build), 4)
                if build else None,
                "e_seconds": round(run.get("e_seconds", 0.0), 6),
                "w_seconds": round(run.get("w_seconds", 0.0), 6),
                "s_seconds": round(run.get("s_seconds", 0.0), 6),
                "barrier_waits": run.get("barrier_waits"),
                "condvar_waits": run.get("condvar_waits"),
            })
        out_series.append({
            "function": function,
            "algorithm": algorithm,
            "records_scanned": base.get("records_scanned"),
            "records_split": base.get("records_split"),
            "points": points,
        })

    out = {
        "schema_version": 1,
        "suite": "parallel_builders",
        "context": raw.get("context", {}),
        "series": out_series,
    }
    with open(output, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote {output} ({len(out_series)} series)")
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    if not out_series:
        print("error: no runs in input", file=sys.stderr)
        return 1
    return 0


def convert_forest(raw, output):
    """Groups the timed sweep by (trees, engine, inner, schedule) and
    derives, per thread count, the speedup vs that series' threads=1 run.
    Binned points also carry bin_seconds, the one shared quantize + bin pass
    inside train_seconds. Runs with schedule == "oob" are the ensemble-size
    sweep and become a separate "oob_curve" section instead."""
    series = {}  # (trees, engine, inner, schedule) -> {threads: run}
    oob_curve = []
    for run in raw.get("runs", []):
        if run.get("schedule") == "oob":
            oob_curve.append({
                "trees": run["trees"],
                "oob_accuracy": round(run["oob_accuracy"], 4),
                "train_seconds": round(run["train_seconds"], 6),
            })
            continue
        key = (run["trees"], run.get("engine", "sorted"), run["inner"],
               run["schedule"])
        series.setdefault(key, {})[run["threads"]] = run

    out_series = []
    errors = []
    for (trees, engine, inner, schedule), by_threads in sorted(series.items()):
        base = by_threads.get(1)
        if base is None or not base.get("train_seconds"):
            errors.append(f"T={trees}/{engine}/{inner}/{schedule}: "
                          "no threads=1 baseline")
            continue
        points = []
        for threads in sorted(by_threads):
            run = by_threads[threads]
            train = run["train_seconds"]
            point = {
                "threads": threads,
                "split": f'{run["concurrent_trees"]}x{run["inner_threads"]}',
                "train_seconds": round(train, 6),
                "speedup": round(base["train_seconds"] / train, 3)
                if train else None,
            }
            if engine == "binned":
                point["bin_seconds"] = round(run.get("bin_seconds", 0.0), 6)
            points.append(point)
        out_series.append({
            "trees": trees,
            "engine": engine,
            "inner": inner,
            "schedule": schedule,
            "points": points,
        })

    out = {
        "schema_version": 1,
        "suite": "forest_speedup",
        "context": raw.get("context", {}),
        "series": out_series,
        "oob_curve": sorted(oob_curve, key=lambda r: r["trees"]),
    }
    with open(output, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote {output} ({len(out_series)} series, "
          f"{len(oob_curve)} oob points)")
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    if not out_series:
        print("error: no runs in input", file=sys.stderr)
        return 1
    return 0


def convert_binned(raw, output):
    """Passes the per-function engine comparison through (rounded) and
    derives the headline numbers the README/EXPERIMENTS tables quote: the
    worst-case |accuracy delta| and how many functions the binned engine's
    build is faster on. Deltas are reported as-is, never clipped."""
    runs = []
    errors = []
    for run in raw.get("runs", []):
        try:
            runs.append({
                "function": run["function"],
                "tuples": run["tuples"],
                "sorted_build_ns_per_record":
                    round(run["sorted_build_ns_per_record"], 1),
                "binned_build_ns_per_record":
                    round(run["binned_build_ns_per_record"], 1),
                "build_speedup": round(run["build_speedup"], 3),
                "sorted_total_ns_per_record":
                    round(run["sorted_total_ns_per_record"], 1),
                "binned_total_ns_per_record":
                    round(run["binned_total_ns_per_record"], 1),
                "sorted_train_accuracy": round(run["sorted_train_accuracy"], 6),
                "binned_train_accuracy": round(run["binned_train_accuracy"], 6),
                "train_accuracy_delta": round(run["train_accuracy_delta"], 6),
                "sorted_test_accuracy": round(run["sorted_test_accuracy"], 6),
                "binned_test_accuracy": round(run["binned_test_accuracy"], 6),
                "test_accuracy_delta": round(run["test_accuracy_delta"], 6),
                "sorted_nodes": run["sorted_nodes"],
                "binned_nodes": run["binned_nodes"],
                "bins_scanned": run["bins_scanned"],
            })
        except KeyError as e:
            errors.append(f"run F{run.get('function', '?')}: missing {e}")

    derived = None
    if runs:
        derived = {
            "max_abs_train_accuracy_delta":
                round(max(abs(r["train_accuracy_delta"]) for r in runs), 6),
            "max_abs_test_accuracy_delta":
                round(max(abs(r["test_accuracy_delta"]) for r in runs), 6),
            "functions_build_faster":
                sum(1 for r in runs if r["build_speedup"] > 1.0),
            "functions_total": len(runs),
        }

    out = {
        "schema_version": 1,
        "suite": "binned_vs_sorted",
        "context": raw.get("context", {}),
        "runs": runs,
        "derived": derived,
    }
    with open(output, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote {output} ({len(runs)} functions)")
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    if not runs:
        print("error: no runs in input", file=sys.stderr)
        return 1
    return 0


def convert_infer(raw, output):
    """Passes the per-function pointer-vs-flat scoring comparison through
    (rounded) and derives the headline tallies EXPERIMENTS.md quotes: how
    many functions clear 2x on the single tree, on the 15-member forest,
    and on at least one of the two. Speedups are recomputed from the ns
    columns so the artifact is internally consistent after rounding. The
    infer_throughput bench aborts on any parity divergence, so a run that
    produced this JSON already proved byte-identical labels and probs."""
    runs = []
    errors = []
    for run in raw.get("runs", []):
        try:
            tree_ptr = run["tree_pointer_ns_per_tuple"]
            tree_flat = run["tree_flat_ns_per_tuple"]
            forest_ptr = run["forest_pointer_ns_per_tuple"]
            forest_flat = run["forest_flat_ns_per_tuple"]
            runs.append({
                "function": run["function"],
                "tuples": run["tuples"],
                "tree_nodes": run["tree_nodes"],
                "forest_trees": run["forest_trees"],
                "tree_pointer_ns_per_tuple": round(tree_ptr, 2),
                "tree_flat_ns_per_tuple": round(tree_flat, 2),
                "tree_speedup": round(tree_ptr / tree_flat, 3),
                "forest_pointer_ns_per_tuple": round(forest_ptr, 2),
                "forest_flat_ns_per_tuple": round(forest_flat, 2),
                "forest_speedup": round(forest_ptr / forest_flat, 3),
            })
        except KeyError as e:
            errors.append(f"run F{run.get('function', '?')}: missing {e}")
        except ZeroDivisionError:
            errors.append(f"run F{run.get('function', '?')}: zero flat time")

    sweep = []
    for row in raw.get("batch_sweep", []):
        try:
            sweep.append({
                "batch": row["batch"],
                "tree_pointer_ns_per_tuple":
                    round(row["tree_pointer_ns_per_tuple"], 2),
                "tree_flat_ns_per_tuple":
                    round(row["tree_flat_ns_per_tuple"], 2),
                "forest_pointer_ns_per_tuple":
                    round(row["forest_pointer_ns_per_tuple"], 2),
                "forest_flat_ns_per_tuple":
                    round(row["forest_flat_ns_per_tuple"], 2),
            })
        except KeyError as e:
            errors.append(f"sweep batch {row.get('batch', '?')}: missing {e}")

    derived = None
    if runs:
        derived = {
            "tree_speedup_ge2_count":
                sum(1 for r in runs if r["tree_speedup"] >= 2.0),
            "forest_speedup_ge2_count":
                sum(1 for r in runs if r["forest_speedup"] >= 2.0),
            "either_speedup_ge2_count":
                sum(1 for r in runs
                    if r["tree_speedup"] >= 2.0 or r["forest_speedup"] >= 2.0),
            "functions_total": len(runs),
            "min_tree_speedup": min(r["tree_speedup"] for r in runs),
            "max_tree_speedup": max(r["tree_speedup"] for r in runs),
            "min_forest_speedup": min(r["forest_speedup"] for r in runs),
            "max_forest_speedup": max(r["forest_speedup"] for r in runs),
        }

    out = {
        "schema_version": 1,
        "suite": "infer_throughput",
        "context": raw.get("context", {}),
        "runs": runs,
        "sweep_function": raw.get("sweep_function"),
        "batch_sweep": sweep,
        "derived": derived,
    }
    with open(output, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote {output} ({len(runs)} functions, {len(sweep)} sweep rows)")
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    if not runs:
        print("error: no runs in input", file=sys.stderr)
        return 1
    return 0


def convert_serve(raw, output):
    """Passes the open-loop connection-scaling rows through (rounded) and
    derives the headline claim EXPERIMENTS.md quotes: the largest
    connection count the front end served with zero errors and zero
    drops, and its ratio to the event-loop count."""
    runs = []
    errors = []
    for run in raw.get("runs", []):
        try:
            runs.append({
                "connections": run["connections"],
                "event_loops": run["event_loops"],
                "offered_rps": round(run["offered_rps"], 1),
                "batch": run["batch"],
                "sent": run["sent"],
                "dropped": run["dropped"],
                "timeouts": run["timeouts"],
                "errors": run["errors"],
                "tuples_per_second": round(run["tuples_per_second"], 1),
                "p50_ms": round(run["p50_ms"], 3),
                "p99_ms": round(run["p99_ms"], 3),
            })
        except KeyError as e:
            errors.append(
                f"run C{run.get('connections', '?')}: missing {e}")

    derived = None
    if runs:
        loops = runs[0]["event_loops"]
        clean = [r["connections"] for r in runs
                 if r["errors"] == 0 and r["dropped"] == 0]
        max_clean = max(clean, default=0)
        derived = {
            "event_loops": loops,
            "max_clean_connections": max_clean,
            "connections_per_thread":
                round(max_clean / loops, 2) if loops else None,
        }

    out = {
        "schema_version": 1,
        "suite": "serve_scaling",
        "context": raw.get("context", {}),
        "runs": runs,
        "derived": derived,
    }
    with open(output, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote {output} ({len(runs)} sweep points)")
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    if not runs:
        print("error: no runs in input", file=sys.stderr)
        return 1
    return 0


def convert_stream(raw, output):
    """Passes the per-function stream-vs-batch comparison through (rounded,
    accuracy curves intact) and derives the headline claim: on how many
    functions the one-pass streaming tree lands within 2% held-out accuracy
    of the batch binned engine, plus the worst delta, the slowest ingest
    rate, and the largest bounded builder state. Deltas are reported as-is,
    never clipped."""
    runs = []
    errors = []
    for run in raw.get("runs", []):
        try:
            runs.append({
                "function": run["function"],
                "tuples": run["tuples"],
                "stream_tuples_per_second":
                    round(run["stream_tuples_per_second"], 1),
                "stream_ns_per_tuple": round(run["stream_ns_per_tuple"], 1),
                "stream_cpu_ns_per_tuple":
                    round(run["stream_cpu_ns_per_tuple"], 1),
                "ingest_cpu_ns_per_tuple":
                    round(run["ingest_cpu_ns_per_tuple"], 1),
                "stream_test_accuracy":
                    round(run["stream_test_accuracy"], 6),
                "batch_test_accuracy": round(run["batch_test_accuracy"], 6),
                "accuracy_delta": round(run["accuracy_delta"], 6),
                "within_2pct": run["within_2pct"],
                "stream_nodes": run["stream_nodes"],
                "batch_nodes": run["batch_nodes"],
                "splits": run["splits"],
                "deactivated_leaves": run["deactivated_leaves"],
                "stream_state_bytes": run["stream_state_bytes"],
                "accuracy_curve": run["accuracy_curve"],
            })
        except KeyError as e:
            errors.append(f"run F{run.get('function', '?')}: missing {e}")

    derived = None
    if runs:
        context = raw.get("context", {})
        derived = {
            "functions_within_2pct":
                sum(1 for r in runs if r["within_2pct"]),
            "functions_total": len(runs),
            "worst_accuracy_delta":
                round(min(r["accuracy_delta"] for r in runs), 6),
            "min_stream_tuples_per_second":
                round(min(r["stream_tuples_per_second"] for r in runs), 1),
            "max_stream_state_bytes":
                max(r["stream_state_bytes"] for r in runs),
            "peak_rss_stream_only_kb":
                context.get("peak_rss_stream_only_kb"),
        }

    out = {
        "schema_version": 1,
        "suite": "stream_throughput",
        "context": raw.get("context", {}),
        "runs": runs,
        "derived": derived,
    }
    with open(output, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    print(f"wrote {output} ({len(runs)} functions)")
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        return 1
    if not runs:
        print("error: no runs in input", file=sys.stderr)
        return 1
    return 0


# Suite name -> (required top-level keys,
#                [(list key, required keys per item), ...]).
VALIDATE_SCHEMAS = {
    "core_kernels": (
        ["schema_version", "suite", "context", "benchmarks", "derived"],
        [("benchmarks", ["name", "ns_per_record"])],
    ),
    "parallel_builders": (
        ["schema_version", "suite", "context", "series"],
        [("series", ["function", "algorithm", "points"])],
    ),
    "forest_speedup": (
        ["schema_version", "suite", "context", "series", "oob_curve"],
        [("series", ["trees", "engine", "inner", "schedule", "points"])],
    ),
    "binned_vs_sorted": (
        ["schema_version", "suite", "context", "runs", "derived"],
        [("runs", ["function", "sorted_build_ns_per_record",
                   "binned_build_ns_per_record", "build_speedup",
                   "sorted_train_accuracy", "binned_train_accuracy",
                   "train_accuracy_delta", "sorted_test_accuracy",
                   "binned_test_accuracy", "test_accuracy_delta"])],
    ),
    "infer_throughput": (
        ["schema_version", "suite", "context", "runs", "batch_sweep",
         "derived"],
        [("runs", ["function", "tree_nodes", "tree_pointer_ns_per_tuple",
                   "tree_flat_ns_per_tuple", "tree_speedup",
                   "forest_pointer_ns_per_tuple", "forest_flat_ns_per_tuple",
                   "forest_speedup"]),
         ("batch_sweep", ["batch", "tree_pointer_ns_per_tuple",
                          "tree_flat_ns_per_tuple"])],
    ),
    "serve_scaling": (
        ["schema_version", "suite", "context", "runs", "derived"],
        [("runs", ["connections", "event_loops",
                   "offered_rps", "batch", "sent", "dropped", "timeouts",
                   "errors", "tuples_per_second", "p50_ms", "p99_ms"])],
    ),
    "stream_throughput": (
        ["schema_version", "suite", "context", "runs", "derived"],
        [("runs", ["function", "tuples", "stream_tuples_per_second",
                   "stream_ns_per_tuple", "stream_cpu_ns_per_tuple",
                   "ingest_cpu_ns_per_tuple", "stream_test_accuracy",
                   "batch_test_accuracy", "accuracy_delta", "within_2pct",
                   "stream_nodes", "batch_nodes", "splits",
                   "stream_state_bytes", "accuracy_curve"])],
    ),
}

# Suite name -> the checked-in artifact basename it belongs at. A file
# named BENCH_*.json whose suite maps to a different basename is invalid.
SUITE_ARTIFACTS = {
    "core_kernels": "BENCH_core.json",
    "parallel_builders": "BENCH_parallel.json",
    "forest_speedup": "BENCH_forest.json",
    "binned_vs_sorted": "BENCH_binned.json",
    "infer_throughput": "BENCH_infer.json",
    "serve_scaling": "BENCH_serve.json",
    "stream_throughput": "BENCH_stream.json",
}


def _reject_constant(value):
    raise ValueError(f"non-finite JSON constant: {value}")


def _find_nonfinite(node, path):
    """json.load with parse_constant catches literal NaN tokens; this walk
    catches floats that slipped in some other way (defense in depth)."""
    if isinstance(node, float) and (node != node or node in
                                    (float("inf"), float("-inf"))):
        return [f"{path}: non-finite value {node!r}"]
    if isinstance(node, dict):
        return [e for k, v in node.items()
                for e in _find_nonfinite(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [e for i, v in enumerate(node)
                for e in _find_nonfinite(v, f"{path}[{i}]")]
    return []


def validate_file(path):
    """Returns a list of problems (empty = valid)."""
    try:
        with open(path) as f:
            doc = json.load(f, parse_constant=_reject_constant)
    except (OSError, ValueError) as e:
        return [f"unreadable: {e}"]

    problems = _find_nonfinite(doc, "$")
    if not isinstance(doc, dict):
        return problems + ["top level is not an object"]
    suite = doc.get("suite")
    schema = VALIDATE_SCHEMAS.get(suite)
    if schema is None:
        return problems + [f"unknown suite {suite!r}"]
    basename = os.path.basename(path)
    expected = SUITE_ARTIFACTS.get(suite)
    if basename.startswith("BENCH_") and expected and basename != expected:
        problems.append(
            f"suite {suite!r} belongs at {expected!r}, not {basename!r}")
    top_keys, list_specs = schema
    for key in top_keys:
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    if doc.get("schema_version") != 1:
        problems.append(f"schema_version is {doc.get('schema_version')!r}, "
                        "want 1")
    for list_key, item_keys in list_specs:
        items = doc.get(list_key)
        if not isinstance(items, list) or not items:
            problems.append(f"{list_key!r} missing, not a list, or empty")
            continue
        for i, item in enumerate(items):
            for key in item_keys:
                if not isinstance(item, dict) or key not in item:
                    problems.append(f"{list_key}[{i}]: missing key {key!r}")
                elif item[key] is None:
                    problems.append(f"{list_key}[{i}].{key}: null")
    return problems


def run_validate(files):
    import glob
    if not files:
        files = sorted(glob.glob("BENCH_*.json"))
    if not files:
        print("error: --validate found no BENCH_*.json files",
              file=sys.stderr)
        return 1
    failed = 0
    for path in files:
        problems = validate_file(path)
        if problems:
            failed += 1
            for p in problems:
                print(f"{path}: {p}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    if failed:
        print(f"error: {failed}/{len(files)} artifacts invalid",
              file=sys.stderr)
        return 1
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("input", nargs="*",
                    help="bench JSON file ('-' = stdin); with --validate, "
                         "artifact files (default: glob BENCH_*.json)")
    ap.add_argument("-o", "--output", default=None,
                    help="output path (default BENCH_core.json, "
                         "BENCH_parallel.json, BENCH_forest.json, "
                         "BENCH_binned.json, BENCH_infer.json, "
                         "BENCH_serve.json, or BENCH_stream.json by "
                         "detected suite)")
    ap.add_argument("--validate", action="store_true",
                    help="schema-check checked-in BENCH_*.json artifacts "
                         "instead of converting")
    args = ap.parse_args()

    if args.validate:
        return run_validate(args.input)

    if len(args.input) != 1:
        ap.error("convert mode takes exactly one input file")
    if args.input[0] == "-":
        raw = json.load(sys.stdin)
    else:
        with open(args.input[0]) as f:
            raw = json.load(f)

    if raw.get("suite") == "parallel_builders":
        return convert_parallel(raw, args.output or "BENCH_parallel.json")
    if raw.get("suite") == "forest_speedup":
        return convert_forest(raw, args.output or "BENCH_forest.json")
    if raw.get("suite") == "binned_vs_sorted":
        return convert_binned(raw, args.output or "BENCH_binned.json")
    if raw.get("suite") == "infer_throughput":
        return convert_infer(raw, args.output or "BENCH_infer.json")
    if raw.get("suite") == "serve_scaling":
        return convert_serve(raw, args.output or "BENCH_serve.json")
    if raw.get("suite") == "stream_throughput":
        return convert_stream(raw, args.output or "BENCH_stream.json")
    return convert_kernels(raw, args.output or "BENCH_core.json")


if __name__ == "__main__":
    sys.exit(main())
