#!/usr/bin/env python3
"""bench_e2e_smoke: every workload at quick sizing (3 roster ids, one
pass, 2 s service phases), traced, through run.py's own code path.

Fails unless every end-to-end and per-layer metric BENCHMARK.json names is
emitted with its unit on every workload, and no operation or output check
failed.

    python3 bench/e2e/smoke.py <path to bench_e2e>
"""

import sys
import time

sys.dont_write_bytecode = True  # keep the source tree clean
import run  # noqa: E402


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    binary = sys.argv[1]
    bench = run.load_benchmark()
    start = time.monotonic()
    failures = []
    for workload in run.WORKLOADS:
        try:
            record = run.run_workload(binary, workload, seed=1, trace=True,
                                      quick=True)
            for group, metrics in (("end_to_end", record["untraced_metrics"]),
                                   ("per_layer", record["metrics"])):
                units = {m["name"]: m["unit"] for m in bench[group]}
                run.select({"workload": workload, "metrics": metrics},
                           list(units), units)
            if not record["correct"] or record["failed"] != 0:
                failures.append("%s: %d of %d operations failed: %s" % (
                    workload, record["failed"], record["attempted"],
                    record["errors"]))
        except run.BenchError as e:
            failures.append("%s: %s" % (workload, e))
    for f in failures:
        print("FAIL " + f)
    print("bench_e2e_smoke: %d workloads, %.1f s, %s" % (
        len(run.WORKLOADS), time.monotonic() - start,
        "failed" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
