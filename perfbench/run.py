#!/usr/bin/env python3
"""End-to-end BarrierPoint pipeline benchmark.

Builds the library and the harness (perfbench/pipeline_bench.cpp) from
the sources of this checkout, runs one workload, checks its outputs and
prints every metric by name and unit. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run.py --workload dse-cg --seed 12345 --seconds 50 --trace 0
  python3 perfbench/run.py --workload dse-cg --trace 1      # per-layer metrics + trace
  python3 perfbench/run.py --selfcheck [--workload NAME]    # determinism self-check

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 reports the per-layer metrics from a separate traced run and
writes a Chrome trace-event file (open it in https://ui.perfetto.dev).
The build and scratch files go to $CARGO_TARGET_DIR (default
.bench_build) under the checkout root. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["dse-cg", "regions-sp", "replay-stream-sp"]
DEFAULT_SEED = 12345  # WorkloadParams' default seed

# name -> unit; the order is the report's order.
END_TO_END = {
    "setup_s": "s",
    "onetime_s": "s",
    "sampled_sim_s": "s",
    "reference_s": "s",
    "peak_rss_mb": "MB",
}
TIMINGS = ["setup_s", "onetime_s", "sampled_sim_s", "reference_s"]

MEMSYS_FIELDS = ["accesses", "l1_hits", "l2_hits", "l3_hits", "remote_hits",
                 "dram_accesses", "llc_misses", "invalidations"]
PER_LAYER = {
    # Accuracy in simulated time: deterministic per seed, but it varies
    # several-fold from seed to seed, so it cannot carry an end-to-end
    # bound (README.md, "Why error_pct is not bounded").
    "error_pct": "%",
    "workloads.generate_s": "s",
    "workloads.uops": "count",
    "trace_io.record_s": "s",
    "trace_io.bytes": "bytes",
    "trace_io.open_s": "s",
    "trace_io.read_s": "s",
    "trace_io.verify_s": "s",
    "trace_io.read_mb_per_s": "MB/s",
    "profile.s": "s",
    "profile.regions": "count",
    "profile.mem_ops": "count",
    "profile.region_us_p50": "us",
    "profile.region_us_p99": "us",
    "core.project_s": "s",
    "core.cluster_s": "s",
    "core.stream_s": "s",
    "core.spill_bytes": "bytes",
    "core.k": "count",
    "core.barrierpoints": "count",
    "core.snapshot_s": "s",
    "core.snapshot_sets": "count",
    "core.snapshot_lines": "count",
    "core.artifact_save_s": "s",
    "core.artifact_load_s": "s",
    "core.artifact_bytes": "bytes",
    "sim.warmup_s": "s",
    "sim.warmup_lines": "count",
    "sim.warmup_ns_per_line": "ns/line",
    "sim.train_s": "s",
    "sim.detail_s": "s",
    "sim.detail_uops": "count",
    "sim.reference_uops": "count",
    "sim.reference_uops_per_s": "1/s",
}
for _side in ("bp", "ref"):
    for _field in MEMSYS_FIELDS:
        PER_LAYER[f"memsys.{_side}.{_field}"] = "count"
for _stage in ("onetime", "sampled", "reference"):
    PER_LAYER[f"support.{_stage}.cpu_s"] = "s"
    PER_LAYER[f"support.{_stage}.cpu_util"] = "ratio"
for _layer in ("stage", "support", "workloads", "trace_io", "profile", "core",
               "sim"):
    PER_LAYER[f"self_s.{_layer}"] = "s"
PER_LAYER["trace.overhead_pct"] = "%"
PER_LAYER["trace.spans"] = "count"

# Values that must repeat exactly for a seed (the determinism self-check).
DETERMINISTIC = (["error_pct", "core.k", "core.barrierpoints",
                  "core.snapshot_lines", "sim.warmup_lines", "workloads.uops",
                  "trace_io.bytes"] +
                 [k for k in PER_LAYER if k.startswith("memsys.")])


def fail(message, code):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configure (once) and build the harness; return its path."""
    for required in ("CMakeLists.txt", os.path.join("src", "core", "experiment.h")):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail(f"no {required} in {ROOT}: run from a checkout of the "
                 "repository", 2)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "pipeline_bench",
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=840)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 3)
    return os.path.join(out, "pipeline_bench")


def run_harness(binary, workload, seed, seconds, trace):
    """Run one harness process; return its parsed JSON result."""
    work = os.path.join(build_dir(), "work", f"{workload}-{os.getpid()}")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", work]
    trace_file = None
    if trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        trace_file = os.path.join(traces, f"{workload}-seed{seed}.json")
        cmd += ["--trace-out", trace_file]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170,
                                text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if result.returncode != 0:
        fail(f"harness exited with code {result.returncode}", 4)
    lines = result.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result", 4)
    data = json.loads(lines[-1])
    data["layers"]["error_pct"] = data["error_pct"]
    data["trace_file"] = trace_file
    return data


def tail_percentile(values):
    """Highest of p50..p99 with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return None
    ordered = sorted(values)
    rank = max(1, -(-best * n // 100))  # nearest rank
    return best, ordered[rank - 1]


def describe_timing(name, values):
    median = statistics.median(values)
    line = f"  {name:<15} median {median:.6g} s"
    tail = tail_percentile(values)
    if tail:
        line += f"  p{tail[0]} {tail[1]:.6g} s"
    else:
        line += "  (no tail percentile: fewer than 11 samples)"
    return line + f"  n={len(values)}"


def end_to_end(data):
    metrics = {name: statistics.median(data[name]) for name in TIMINGS}
    metrics["peak_rss_mb"] = data["peak_rss_mb"]
    print(f"workload {data['workload']}  seed {data['seed']}  timed studies "
          f"{len(data['onetime_s'])} (after an untimed warm-up)")
    for name in TIMINGS:
        print(describe_timing(name, data[name]))
    print(f"  {'error_pct':<15} {data['error_pct']:.6g} %  (simulated time, "
          "max over machines)")
    print(f"  {'peak_rss_mb':<15} {data['peak_rss_mb']:.6g} MB")
    print(f"  {'ops_failed':<15} {data['failed']} count of "
          f"{data['attempted']} ops_attempted")
    # Derived, not a metric: a faster detailed simulator lowers it.
    onetime = metrics["onetime_s"]
    for m in data["machines"]:
        ref = statistics.median(m["reference_s"])
        cost = onetime + statistics.median(m["sampled_sim_s"])
        print(f"  derived host speedup on {m['name']}: reference / "
              f"(one-time + sampled) = {ref:.4g} / {cost:.4g} = "
              f"{ref / cost:.3f}x  beside error {m['error_pct']:.4g} %")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}


def per_layer(data):
    layers = data["layers"]
    print(f"workload {data['workload']}  seed {data['seed']}  traced run")
    for name, unit in PER_LAYER.items():
        if name in layers:
            print(f"  {name:<28} {layers[name]:.6g} {unit}")
    print(f"  {'ops_failed':<28} {data['failed']} count of "
          f"{data['attempted']} ops_attempted")
    if data["trace_file"]:
        print(f"  trace: {data['trace_file']} (open in https://ui.perfetto.dev)")
    return {k: {"value": layers[k], "unit": u}
            for k, u in PER_LAYER.items() if k in layers}


def deterministic_values(data):
    return {k: data["layers"].get(k) for k in DETERMINISTIC}


def selfcheck(binary, workloads, seed):
    """Run each workload twice; fail if a deterministic value differs."""
    ok = True
    for workload in workloads:
        first, second = (run_harness(binary, workload, seed, 1, 1)
                         for _ in range(2))
        a, b = deterministic_values(first), deterministic_values(second)
        differ = [k for k in a if a[k] is None or a[k] != b[k]]
        failed = first["failed"] + second["failed"]
        status = "ok" if not differ and not failed else "FAILED"
        ok = ok and status == "ok"
        print(f"determinism {workload} seed {seed}: {status} "
              f"({len(a)} values compared, {failed} ops failed)")
        for k in differ:
            print(f"  {k}: {a[k]!r} != {b[k]!r}")
    print(json.dumps({"selfcheck": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="run each workload twice and compare every "
                             "deterministic value")
    args = parser.parse_args()
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required")

    binary = build()
    if args.selfcheck:
        return selfcheck(binary, [args.workload] if args.workload else WORKLOADS,
                         args.seed)

    data = run_harness(binary, args.workload, args.seed, args.seconds, args.trace)
    for failure in data["failures"]:
        print(f"  FAILED {failure}")
    # A run whose first study failed has nothing to report.
    complete = bool(data["onetime_s"])
    if not complete:
        metrics = {}
    elif args.trace:
        metrics = per_layer(data)
    else:
        metrics = end_to_end(data)
    print(json.dumps({
        "correct": complete and data["failed"] == 0,
        "attempted": data["attempted"],
        "failed": data["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
