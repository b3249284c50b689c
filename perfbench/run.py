#!/usr/bin/env python3
"""End-to-end benchmark: generate data -> train -> serialize -> deploy into a
live InferenceService -> serve /v1/predict over loopback HTTP.

    python3 perfbench/run.py --workload exact-mwk --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Builds the C++ driver (perfbench/CMakeLists.txt) from the repository's own
sources on first use, runs the workload in its own process and prints, as
the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1 they
are the per-layer metrics, and the run also prints the traced report: the
layer components and residual of every end-to-end metric, the overhead of
the traced run against an untraced run of the same seed, and which layer
metric should move which end-to-end metric on which workload. See
perfbench/README.md.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("exact-mwk", "forest-binned", "stream-publish")

END_TO_END = {
    "setup_s": "s",
    "time_to_serve_s": "s",
    "deploy_ms": "ms",
    "predict_p50_ms": "ms",
    "served_tuples_per_s": "1/s",
    "serve_cpu_us_per_tuple": "us",
    "test_accuracy": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, what it should move). This is the interaction
# table the traced report prints: which end-to-end metric a change in the
# layer should move, and on which workload.
EXACT = "time_to_serve_s on exact-mwk; ~0 or unmoved on forest-binned"
LAYERS = {
    "data.generate_s": ("s", "setup_s on all workloads"),
    "core.attr_lists_s": ("s", EXACT),
    "core.presort_s": ("s", EXACT),
    "parallel.build_s": ("s", EXACT),
    "parallel.e_cpu_s": ("s", EXACT),
    "parallel.w_cpu_s": ("s", EXACT),
    "parallel.s_cpu_s": ("s", EXACT),
    "parallel.wait_share": ("ratio", EXACT),
    "parallel.barrier_waits": ("count", EXACT),
    "parallel.condvar_waits": ("count", EXACT),
    "storage.records_read": ("count", EXACT),
    "storage.records_written": ("count", EXACT),
    "core.tree_nodes": ("count", EXACT),
    "binned.h_cpu_s": ("s", "time_to_serve_s on forest-binned"),
    "binned.bins_scanned": ("count", "time_to_serve_s on forest-binned"),
    "ensemble.build_s": ("s", "time_to_serve_s on forest-binned"),
    "ensemble.nodes": ("count", "time_to_serve_s on forest-binned"),
    "io.serialize_ms": ("ms", "deploy_ms; mostly forest-binned"),
    "io.model_bytes": ("bytes", "deploy_ms; mostly forest-binned"),
    "serve.store_load_ms": ("ms", "deploy_ms; mostly forest-binned"),
    "infer.compile_ms": ("ms", "deploy_ms; mostly forest-binned"),
    "serve.store_install_ms": ("ms", "deploy_ms; mostly forest-binned"),
    "deploy.residual_ms": ("ms", "deploy_ms; mostly forest-binned"),
    "serve.model_bytes_pointer": ("bytes", "peak_rss_mb on forest-binned"),
    "serve.model_bytes_flat": ("bytes", "peak_rss_mb on forest-binned"),
    "infer.score_ns_per_tuple": (
        "ns", "served_tuples_per_s and serve_cpu_us_per_tuple on "
        "forest-binned; no effect on exact-mwk"),
    "serve.json_decode_us": ("us", "predict_p50_ms on forest-binned"),
    "serve.engine_p50_us": (
        "us", "predict_p50_ms, served_tuples_per_s, serve_cpu_us_per_tuple "
        "on exact-mwk; unmoved on forest-binned"),
    "serve.front_end_us": (
        "us", "predict_p50_ms, served_tuples_per_s, serve_cpu_us_per_tuple "
        "on exact-mwk; unmoved on forest-binned"),
    "serve.ctx_switches_per_request": (
        "count", "predict_p50_ms, served_tuples_per_s, serve_cpu_us_per_tuple "
        "on exact-mwk (the request hops); stream-publish adds the trainer's"),
    "serve.batch_mean_tuples": (
        "count", "served_tuples_per_s and serve_cpu_us_per_tuple on "
        "exact-mwk; unmoved on forest-binned"),
    "stream.source_s": ("s", "time_to_serve_s on stream-publish"),
    "stream.ingest_s": ("s", "time_to_serve_s on stream-publish"),
    "stream.splits": ("count", "time_to_serve_s on stream-publish"),
    "stream.nodes": ("count", "time_to_serve_s, peak_rss_mb on stream-publish"),
    "stream.deactivated_leaves": (
        "count", "time_to_serve_s, peak_rss_mb on stream-publish"),
    "stream.state_bytes": (
        "bytes", "time_to_serve_s, peak_rss_mb on stream-publish"),
    "stream.snapshot_ms": (
        "ms", "deploy_ms, serve.predict_p90_ms on stream-publish"),
    "stream.install_ms": (
        "ms", "deploy_ms, serve.predict_p90_ms on stream-publish"),
    "stream.publishes": (
        "count", "deploy_ms, serve.predict_p90_ms on stream-publish"),
    "serve.requests": ("count", "diagnostic: requests attempted"),
    "serve.failed": ("count", "diagnostic: failed or mismatched answers"),
    "serve.dropped": ("count", "diagnostic: open-loop requests never sent"),
    "serve.timeouts": ("count", "diagnostic: answers later than 1 s"),
    "serve.open_loop_samples": ("count", "diagnostic: samples behind p50/p90"),
    "serve.generator_lateness_ms": ("ms", "diagnostic: open-loop send lag"),
    "serve.predict_p90_ms": (
        "ms", "diagnostic: open-loop tail, reported, not gated; "
        "stream.snapshot_ms and stream.install_ms move it on stream-publish"),
    "serve.predict_p99_ms": ("ms", "diagnostic: reported, not gated"),
    "host.steal_share": ("ratio", "diagnostic: noisy host vs slow program"),
    "host.cpu_s": ("s", "diagnostic: process CPU over the run"),
    "host.calibration_ms": (
        "ms", "diagnostic: fixed reference job; moves with host speed only"),
    "trace.overhead_share": (
        "ratio", "diagnostic: traced vs untraced time_to_serve_s"),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = pathlib.Path(target)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no smptree sources under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "perfbench_driver", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "perfbench_driver"


def run_driver(driver, workload, seed, seconds, trace, toy=False):
    """Runs one workload in its own process; returns its JSON record."""
    work = driver.parent / "work"
    work.mkdir(exist_ok=True)
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(work)]
    if toy:
        cmd.append("--toy")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=170)
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode} on {workload}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    return json.loads(lines[-1])


def check_units(metrics, expected, what):
    for name, unit in expected.items():
        if name not in metrics:
            fail(f"{what}: metric {name} missing")
        if metrics[name]["unit"] != unit:
            fail(f"{what}: {name} has unit {metrics[name]['unit']}, "
                 f"want {unit}")


def host_record(record):
    layers = record["layers"]
    return {"host": dict(record["host"],
                         steal_share=layers["host.steal_share"]["value"],
                         cpu_s=layers["host.cpu_s"]["value"],
                         calibration_ms=layers["host.calibration_ms"]["value"])}


# What the residual of each end-to-end metric stands for in the report.
RESIDUAL_IS = {
    "predict_p50_ms": "serve.front_end_us: loop, dispatch hops, encode",
    "served_tuples_per_s": "request hops, in us per tuple (1e6 / value)",
    "serve_cpu_us_per_tuple": "front end and wake-ups, CPU us per tuple",
    "peak_rss_mb": "training working set, allocator, runtime",
    "test_accuracy": "deterministic; no layer components",
}


def traced_report(untraced, traced):
    """Per end-to-end metric: components, residual, traced-vs-untraced."""
    report = {}
    overhead = {}
    for name in END_TO_END:
        base = untraced["metrics"][name]["value"]
        value = traced["metrics"][name]["value"]
        parts = traced["components"].get(name, {})
        overhead[name] = value / base - 1.0 if base else 0.0
        if name == "served_tuples_per_s":
            total = 1e6 / value if value else 0.0  # time per tuple
        elif name == "test_accuracy":
            total = 0.0
        else:
            total = value
        report[name] = {"value": value, "untraced": base,
                        "overhead_share": overhead[name], "components": parts,
                        "residual": total - sum(parts.values()),
                        "residual_is": RESIDUAL_IS.get(name, "unaccounted")}
    return report, overhead


def print_report(workload, report):
    print(f"# traced report: {workload}")
    for name, entry in report.items():
        print(f"#   {name} = {entry['value']:.6g} "
              f"(untraced {entry['untraced']:.6g}, "
              f"overhead {entry['overhead_share']:+.2%})")
        for part, value in entry["components"].items():
            print(f"#     {part:34s} {value:.6g}")
        print(f"#     {'residual':34s} {entry['residual']:.6g}  "
              f"[{entry['residual_is']}]")
    print("# interaction table: layer metric -> end-to-end metric it should"
          " move (workload)")
    for name, (unit, moves) in LAYERS.items():
        print(f"#   {name:28s} [{unit}] -> {moves}")
    print(json.dumps({"report": report}))


def run(workload, seed, seconds, trace, toy=False):
    driver = build()
    if not trace:
        record = run_driver(driver, workload, seed, seconds, 0, toy)
        check_units(record["metrics"], END_TO_END, workload)
        metrics = {k: record["metrics"][k] for k in END_TO_END}
        correct, attempted, failed = (record["correct"], record["attempted"],
                                      record["failed"])
        print(json.dumps(host_record(record)))
    else:
        untraced = run_driver(driver, workload, seed, seconds, 0, toy)
        traced = run_driver(driver, workload, seed, seconds, 1, toy)
        check_units(untraced["metrics"], END_TO_END, workload)
        check_units(traced["metrics"], END_TO_END, workload)
        report, overhead = traced_report(untraced, traced)
        layers = dict(traced["layers"])
        layers["trace.overhead_share"] = {
            "value": overhead["time_to_serve_s"], "unit": "ratio"}
        check_units(layers, {k: v[0] for k, v in LAYERS.items()}, workload)
        metrics = {k: layers[k] for k in LAYERS}
        correct = untraced["correct"] and traced["correct"]
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        print(json.dumps(host_record(traced)))
        print_report(workload, report)
        for record in (untraced, traced):
            for message in record["failures"]:
                print(f"# failure: {message}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return correct


def self_check():
    """Each workload at toy size, both modes: every metric, right unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.py")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != END_TO_END:
        fail("BENCHMARK.json end_to_end differs from run.py")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != {
            k: v[0] for k, v in LAYERS.items()}:
        fail("BENCHMARK.json per_layer differs from run.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            start = time.time()
            if not run(workload, 7, 1, trace, toy=True):
                fail(f"self-check: {workload} trace {trace} not correct")
            print(f"# self-check {workload} trace {trace} ok "
                  f"({time.time() - start:.1f}s)")
    print("self-check ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at toy size and check that "
                             "every metric is reported with its unit")
    args = parser.parse_args()
    if args.self_check:
        self_check()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    return 0 if run(args.workload, args.seed, args.seconds, args.trace) else 1


if __name__ == "__main__":
    sys.exit(main())
