#!/usr/bin/env python3
"""Paired parent-vs-change comparison of bench/e2e results.

    compare.py run --parent CHECKOUT --change CHECKOUT --out DIR [--pairs 10]
                   [--workload NAME ...]
    compare.py diff PARENT_RESULTS CHANGE_RESULTS
    compare.py --self-test

`run` alternates the two checkouts' run.py, pair by pair (the parent goes
first in even pairs, the change in odd ones), both sides of a pair on the
same seed, writing results under DIR/parent and DIR/change; then it diffs
them. `diff` reads two directories of results files.

The rule, per workload and end-to-end metric of BENCHMARK.json:
  gain        >= 10 pairs, the change wins >= 9/10 of them (ties count for
              neither side), and the medians differ by more than the
              parent's interquartile range
  regression  otherwise, the change's median is worse than the parent's by
              more than the metric's bound, however noisy either side is
  unresolved  otherwise, the run-to-run spread (IQR / median) of either
              side exceeds the bound, unless every change run beats every
              parent run
  unchanged   otherwise
Result sets whose host_threads, TOPOGEN_THREADS, build type, phase length
or sizing differ are refused. Exit status: 0, or 1 when any metric
regressed, 2 on refusal.
"""

import argparse
import glob
import json
import os
import random
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
MIN_PAIRS_FOR_GAIN = 10
RUN_KEYS = ("host_threads", "TOPOGEN_THREADS", "build_type", "seconds",
            "quick")


class Refused(Exception):
    pass


def load_results(directory):
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            records.append(json.load(f))
    if not records:
        raise Refused("no results files in " + directory)
    return records


def check_comparable(parent, change):
    for r in parent + change:
        if r.get("trace"):
            raise Refused("traced run in the set (%s seed %s): compare "
                          "untraced runs only" % (r["workload"], r["seed"]))
        if not r.get("correct"):
            raise Refused("run failed its checks (%s seed %s)"
                          % (r["workload"], r["seed"]))
    for key in RUN_KEYS:
        values = {str(r.get(key)) for r in parent + change}
        if len(values) > 1:
            raise Refused("results differ in %s: %s"
                          % (key, ", ".join(sorted(values))))


def pair_up(parent, change, workload):
    """Parent and change values paired by seed, per metric."""
    by_seed = {r["seed"]: r for r in parent if r["workload"] == workload}
    pairs = [(by_seed[r["seed"]], r) for r in change
             if r["workload"] == workload and r["seed"] in by_seed]
    return sorted(pairs, key=lambda p: p[0]["seed"])


def spread(values):
    if len(values) < 2:
        return 0.0, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1, (q3 - q1) / statistics.median(values)


def judge(p_values, c_values, better, bound):
    """The verdict for one metric; returns (verdict, detail dict)."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means the change is worse
    med_p = statistics.median(p_values)
    med_c = statistics.median(c_values)
    iqr_p, rel_p = spread(p_values)
    _, rel_c = spread(c_values)
    wins = sum(1 for p, c in zip(p_values, c_values) if sign * (c - p) < 0)
    worse = sign * (med_c - med_p) / med_p
    all_better = all(sign * (c - p) < 0 for c in c_values for p in p_values)
    n = len(p_values)
    if (n >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * n
            and -sign * (med_c - med_p) > iqr_p):
        verdict = "gain"
    elif worse > bound:
        verdict = "regression"
    elif max(rel_p, rel_c) > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return verdict, {
        "pairs": n, "wins": wins, "parent_median": med_p,
        "change_median": med_c, "change_pct": 100.0 * (med_c / med_p - 1.0),
        "parent_spread_pct": 100.0 * rel_p, "change_spread_pct": 100.0 * rel_c,
        "bound_pct": 100.0 * bound,
    }


def diff(parent, change, benchmark):
    """Verdicts per workload and end-to-end metric."""
    check_comparable(parent, change)
    metrics = benchmark["end_to_end"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    verdicts = {}
    for workload in workloads:
        pairs = pair_up(parent, change, workload)
        if not pairs:
            continue
        for m in metrics:
            p_values = [p["metrics"][m["name"]]["value"] for p, _ in pairs]
            c_values = [c["metrics"][m["name"]]["value"] for _, c in pairs]
            verdicts[(workload, m["name"])] = judge(
                p_values, c_values, m["better"], m["bound"])
    if not verdicts:
        raise Refused("no run of the change has a parent run with the same "
                      "workload and seed")
    return verdicts


def report(verdicts, benchmark):
    names = [m["name"] for m in benchmark["end_to_end"]]
    short = {"gain": "GAIN", "regression": "REGR", "unresolved": "??",
             "unchanged": "="}
    workloads = sorted({w for w, _ in verdicts},
                       key=[w["name"] for w in benchmark["workloads"]].index)
    print("%-14s" % "workload" + "".join("%18s" % n for n in names))
    for w in workloads:
        cells = []
        for n in names:
            verdict, d = verdicts[(w, n)]
            cells.append("%18s" % ("%s %+.1f%%" % (short[verdict],
                                                   d["change_pct"])))
        print("%-14s" % w + "".join(cells))
    print()
    for (w, n), (verdict, d) in verdicts.items():
        print("%-14s %-16s %-10s parent %.5g (IQR %.1f%%)  change %.5g "
              "(IQR %.1f%%)  wins %d/%d  bound %.0f%%"
              % (w, n, verdict, d["parent_median"], d["parent_spread_pct"],
                 d["change_median"], d["change_spread_pct"], d["wins"],
                 d["pairs"], d["bound_pct"]))
    pairs = min(d["pairs"] for _, d in verdicts.values())
    if pairs < MIN_PAIRS_FOR_GAIN:
        print("# %d pairs: fewer than %d, so no gain can be claimed"
              % (pairs, MIN_PAIRS_FOR_GAIN))
    return any(v == "regression" for v, _ in verdicts.values())


def run_pairs(args):
    out = {"parent": os.path.join(args.out, "parent"),
           "change": os.path.join(args.out, "change")}
    for d in out.values():
        os.makedirs(d, exist_ok=True)
    checkouts = {"parent": args.parent, "change": args.change}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            for side in order:
                path = os.path.join(out[side], "%s-seed%d.json"
                                    % (workload, seed))
                cmd = [sys.executable, os.path.join(checkouts[side], "bench",
                                                    "e2e", "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--out", path]
                print("# pair %d %s %s" % (i, side, workload), flush=True)
                if subprocess.run(cmd, cwd=checkouts[side],
                                  stdout=subprocess.DEVNULL).returncode != 0:
                    raise Refused("%s run failed: %s" % (side, " ".join(cmd)))
    return load_results(out["parent"]), load_results(out["change"])


def synthetic(workload, seed_values, **run_keys):
    records = []
    for seed, values in seed_values:
        rec = {"workload": workload, "seed": seed, "trace": False,
               "correct": True, "host_threads": 4, "TOPOGEN_THREADS": 4,
               "build_type": "Release", "seconds": 10, "quick": False,
               "metrics": {n: {"value": v} for n, v in values.items()}}
        rec.update(run_keys)
        records.append(rec)
    return records


def self_test(benchmark):
    """Synthetic result sets, judged on BENCHMARK.json's own end-to-end
    metrics and bounds: a 25% slowdown must be flagged on every metric,
    identical sets must not, a noisy metric must read unresolved but a
    noisy 40% slowdown a regression, a clean 20% speed-up must read as a
    gain, and mismatched thread counts or phase lengths must be refused."""
    workload = benchmark["workloads"][0]["name"]
    metrics = benchmark["end_to_end"]
    rng = random.Random(7)

    def runs(worse=0.0, noise=0.002):
        """MIN_PAIRS_FOR_GAIN runs, every metric moved by `worse` in its
        bad direction, with uniform relative noise of +-`noise`."""
        return [(s, {m["name"]: 100.0
                     * (1 + worse if m["better"] == "lower" else 1 - worse)
                     * (1 + noise * rng.uniform(-1, 1)) for m in metrics})
                for s in range(1, MIN_PAIRS_FOR_GAIN + 1)]

    def reshuffled(base, worse):
        """base's values reversed across seeds (the same median and spread,
        half the pairs won), moved by `worse` in each bad direction."""
        values = [v for _, v in reversed(base)]
        return [(s, {m["name"]: v[m["name"]]
                     * (1 + worse if m["better"] == "lower" else 1 - worse)
                     for m in metrics}) for (s, _), v in zip(base, values)]

    base = runs()
    noisy = runs(noise=0.5)
    cases = [
        ("identical sets", base, base, {"unchanged"}),
        ("25% slowdown", base, runs(0.25), {"regression"}),
        ("noisy metric", noisy, reshuffled(noisy, 0.0), {"unresolved"}),
        ("noisy 40% slower", noisy, reshuffled(noisy, 0.4), {"regression"}),
        ("20% speed-up", base, runs(-0.2), {"gain"}),
    ]
    ok = True
    for label, p, c, expected in cases:
        verdicts = diff(synthetic(workload, p), synthetic(workload, c),
                        benchmark)
        got = {v for v, _ in verdicts.values()}
        good = got == expected
        ok = ok and good
        print("%-18s %-28s %s" % (label, ",".join(sorted(got)),
                                  "ok" if good else "FAIL, want %s" % expected))
    for label, key, value in (("thread mismatch", "host_threads", 8),
                              ("phase mismatch", "seconds", 5)):
        try:
            diff(synthetic(workload, base),
                 synthetic(workload, base, **{key: value}), benchmark)
            print("%-18s %-28s FAIL" % (label, "accepted"))
            ok = False
        except Refused as e:
            print("%-18s %-28s ok" % (label, "refused: " + str(e)))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    if sys.argv[1:] == ["--self-test"]:
        return self_test(benchmark)
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("--parent", required=True)
    r.add_argument("--change", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--pairs", type=int, default=MIN_PAIRS_FOR_GAIN)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--workload", action="append")
    d = sub.add_parser("diff")
    d.add_argument("parent")
    d.add_argument("change")
    args = parser.parse_args()

    try:
        if args.mode == "run":
            args.workload = args.workload or [
                w["name"] for w in benchmark["workloads"]]
            parent, change = run_pairs(args)
        else:
            parent, change = load_results(args.parent), load_results(args.change)
        regressed = report(diff(parent, change, benchmark), benchmark)
    except Refused as e:
        print("compare.py: refused: %s" % e, file=sys.stderr)
        return 2
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
