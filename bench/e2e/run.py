#!/usr/bin/env python3
"""The end-to-end benchmark for topogen: the paper pipeline and topogend.

Builds bench_e2e (a Release tree in build-bench/), runs each workload in a
fresh process and prints one line per metric with its unit and sample
count. The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json (--trace 0) or every
per-layer metric (--trace 1). Each run also writes a results file (the run
record compare.py reads) under build-bench/results/ or at --out.

    python3 bench/e2e/run.py                          # all four workloads
    python3 bench/e2e/run.py --workload pipeline-warm --seed 3
    python3 bench/e2e/run.py --workload service-warm --trace 1

--trace 1 runs the workload untraced, then traced (bench spans plus the
program's own TOPOGEN_TRACE/TOPOGEN_STATS output, written beside the span
file under build-bench/trace/), then the parallel probe at
TOPOGEN_THREADS=4 and 1; it prints each layer's self time and the tracing
overhead. README.md in this directory describes workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
WORKLOADS = ["pipeline-cold", "pipeline-warm", "service-warm", "service-mixed"]
THREADS = 4  # TOPOGEN_THREADS for every timed run, whatever the host has
RUN_BUDGET_S = 170.0  # one invocation's wall budget once the build is done


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cache_value(build_dir, key):
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    """Configures (once) and builds bench_e2e; returns the binary path."""
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    steps = []
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", str(THREADS)])
    with open(logfile, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                with open(logfile) as f:
                    log(f.read()[-3000:])
                raise BenchError("build failed (" + logfile + ")")
    return os.path.join(BUILD, "bench_e2e")


def compiler(build_dir):
    path = cache_value(build_dir, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([path, "-dumpfullversion"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        version = ""
    return (os.path.basename(path) + " " + version).strip() or "unknown"


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_threads():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 0


def bench_env(work, threads, extra=None):
    """The child environment: no inherited TOPOGEN_* knobs, the thread
    count pinned, and the service cache inside the work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TOPOGEN_")}
    env["TOPOGEN_THREADS"] = str(threads)
    env["TOPOGEN_CACHE_DIR"] = os.path.join(work, "service-cache")
    env.update(extra or {})
    return env


def run_binary(binary, args, env, deadline):
    """Runs bench_e2e once; returns its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(args))
    try:
        proc = subprocess.run([binary] + args, env=env, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("bench_e2e timed out: " + " ".join(args))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("bench_e2e printed no result (exit %d): %s"
                         % (proc.returncode, " ".join(args)))
    result["exit_code"] = proc.returncode
    return result


def self_time_by_layer(spans_path):
    """Self time per layer (span-name prefix) from the bench span file:
    each span's duration minus its children's."""
    with open(spans_path) as f:
        events = json.load(f)["traceEvents"]
    child_time = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + e["dur"]
    layers = {}
    for e in events:
        layer = e["name"].split(".")[0]
        total, self_us, count = layers.get(layer, (0.0, 0.0, 0))
        self_time = max(0.0, e["dur"] - child_time.get(e["args"]["span"], 0.0))
        layers[layer] = (total + e["dur"], self_us + self_time, count + 1)
    return layers


def run_workload(binary, workload, seed, trace, quick=False):
    """One benchmark run of one workload, phases of BENCHMARK.json's
    run_seconds (quick: smoke sizing); returns the run record. Scratch
    files, spans and results go under the binary's build directory."""
    deadline = time.monotonic() + RUN_BUDGET_S
    build_dir = os.path.dirname(os.path.abspath(binary))
    work = os.path.join(build_dir, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    base = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(load_benchmark()["run_seconds"]), "--work-dir", work]
    base += ["--quick"] if quick else []
    try:
        record = run_binary(binary, base, bench_env(work, THREADS), deadline)
        if trace:
            record = trace_run(binary, base, record, work,
                               os.path.join(build_dir, "trace", "%s-seed%d"
                                            % (workload, seed)),
                               deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update({
        "schema": "topogen-e2e/1",
        "trace": bool(trace),
        "host_threads": host_threads(),
        "TOPOGEN_THREADS": THREADS,
        "build_type": cache_value(build_dir, "CMAKE_BUILD_TYPE") or "unknown",
        "compiler": compiler(build_dir),
        "git_sha": git_sha(),
    })
    return record


def trace_run(binary, base, untraced, work, tdir, deadline):
    workload = untraced["workload"]
    shutil.rmtree(tdir, ignore_errors=True)
    os.makedirs(tdir)
    spans = os.path.join(tdir, "bench_spans.json")
    traced = run_binary(
        binary, base + ["--layers", "--spans", spans],
        bench_env(work, THREADS, {
            "TOPOGEN_TRACE": os.path.join(tdir, "program_trace.json"),
            "TOPOGEN_STATS": os.path.join(tdir, "program_stats.txt"),
        }), deadline)
    probe = base + ["--parallel-probe"]
    wide = run_binary(binary, probe + ["--rss-probe"],
                      bench_env(work, THREADS), deadline)
    serial = run_binary(binary, probe, bench_env(work, 1), deadline)

    metrics = dict(traced["metrics"])
    for name in ("parallel.busy_ratio", "hierarchy.linkvalue_rss_mb"):
        metrics[name] = wide["metrics"][name]
    for name, key in (("parallel.speedup_metrics", "metrics_batch_ms"),
                      ("parallel.speedup_linkvalue", "linkvalues_ms")):
        one = serial["metrics"]["parallel." + key]["value"]
        four = wide["metrics"]["parallel." + key]["value"]
        metrics[name] = {"value": one / four, "unit": "x", "n": 1}

    overhead = {}
    for name in ("latency_ms", "cpu_ms_per_op"):
        before = untraced["metrics"][name]["value"]
        after = traced["metrics"][name]["value"]
        overhead[name] = {"untraced": before, "traced": after,
                          "overhead_pct": 100.0 * (after / before - 1.0)}
    layers = self_time_by_layer(spans)
    print("# %s: bench-span self time by layer (%s)" % (workload, spans))
    print("# %-12s %8s %12s %12s" % ("layer", "spans", "total_ms", "self_ms"))
    for layer, (total, self_us, count) in sorted(
            layers.items(), key=lambda kv: -kv[1][1]):
        print("# %-12s %8d %12.1f %12.1f"
              % (layer, count, total / 1e3, self_us / 1e3))
    for name, o in overhead.items():
        print("# tracing overhead on %s: %+.1f%% (untraced %.4g, traced %.4g)"
              % (name, o["overhead_pct"], o["untraced"], o["traced"]))

    parts = (untraced, traced, wide, serial)
    record = dict(traced)
    record["metrics"] = metrics
    record["untraced_metrics"] = untraced["metrics"]
    record["tracing_overhead"] = overhead
    record["self_time_ms"] = {k: v[1] / 1e3 for k, v in layers.items()}
    record["span_file"] = spans
    record["attempted"] = sum(p["attempted"] for p in parts)
    record["failed"] = sum(p["failed"] for p in parts)
    record["correct"] = all(p["correct"] and p["exit_code"] == 0
                            for p in parts)
    record["exit_code"] = max(p["exit_code"] for p in parts)
    record["errors"] = sum((p["errors"] for p in parts), [])
    return record


def select(record, names, units):
    """The BENCHMARK.json metrics of a record; raises when one is missing
    or carries another unit than BENCHMARK.json gives it."""
    out = {}
    for name in names:
        m = record["metrics"].get(name)
        if m is None:
            raise BenchError("%s emitted no %s" % (record["workload"], name))
        if m["unit"] != units[name]:
            raise BenchError("%s: unit %s, BENCHMARK.json says %s"
                             % (name, m["unit"], units[name]))
        out[name] = m
    return out


def write_record(record, binary, path):
    if path is None:
        rdir = os.path.join(os.path.dirname(os.path.abspath(binary)),
                            "results")
        os.makedirs(rdir, exist_ok=True)
        path = os.path.join(rdir, "%s-seed%d-%s%s.json" % (
            record["workload"], record["seed"],
            time.strftime("%Y%m%dT%H%M%S"),
            "-trace" if record["trace"] else ""))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        help="accepted for the benchmark driver; must equal "
                        "BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results file (one workload only)")
    args = parser.parse_args()

    bench = load_benchmark()
    if args.seconds is not None and args.seconds != bench["run_seconds"]:
        parser.error("--seconds %d: the run length is BENCHMARK.json's "
                     "run_seconds, %d" % (args.seconds, bench["run_seconds"]))
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[group]}
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.out and len(workloads) > 1:
        parser.error("--out needs --workload")

    try:
        binary = build()
        records = []
        for workload in workloads:
            record = run_workload(binary, workload, args.seed, args.trace)
            selected = select(record, list(units), units)
            path = write_record(record, binary, args.out)
            for name, m in selected.items():
                print("%-14s %-32s %14.6g %-9s n=%d"
                      % (workload, name, m["value"], m["unit"], m["n"]))
            for name, value in sorted(record["notes"].items()):
                print("# %-12s %-32s %14.6g (not gated)"
                      % (workload, name, value))
            print("# %s: correct=%s attempted=%d failed=%d digest=%s -> %s"
                  % (workload, record["correct"], record["attempted"],
                     record["failed"], record["digest"], path))
            records.append((record, selected))
    except BenchError as e:
        log("run.py: %s" % e)
        return 1

    correct = all(r["correct"] for r, _ in records)
    prefix = len(records) > 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r, _ in records),
        "failed": sum(r["failed"] for r, _ in records),
        "metrics": {
            (r["workload"] + "/" if prefix else "") + name:
                {"value": m["value"], "unit": m["unit"]}
            for r, selected in records for name, m in selected.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
