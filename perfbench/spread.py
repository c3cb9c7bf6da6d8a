#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seconds S] [--trace 0]
                                [--first-seed 1] WORKLOAD...

Runs the benchmark once per seed for each workload, from the root of a
source tree, and prints per metric the median and the quartile spread
(Q3 - Q1) / median as Python's statistics.quantiles(n=4) gives them,
next to the metric's bound from BENCHMARK.json.  --seconds defaults to
BENCHMARK.json's run_seconds.  With --trace 1 it
prints the per-layer metrics instead, and flags counters that did not
repeat exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true",
                    help="run every time with --first-seed")
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    worst = 0.0
    for w in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else i)
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(seconds),
                                      "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            if out.returncode != 0 or not last.startswith("{"):
                print("%s seed %d failed:\n%s" % (w, seed, out.stderr[-2000:]))
                sys.exit(1)
            res = json.loads(last)
            if not res["correct"] or res["failed"]:
                print("%s seed %d: incorrect result %s" % (w, seed, last))
            runs.append(res["metrics"])
            print("  %s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in res["metrics"].items()
                if k in bounds or args.trace)), flush=True)
        print("%s (%d runs)" % (w, len(runs)))
        for name in runs[0]:
            vals = [r[name]["value"] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                if spread > bound / 3:
                    flag = "  <-- above a third of the bound"
            if args.trace and len(set(vals)) > 1 and name.endswith(
                    ("per_query", "per_batch", "compiles")):
                flag = "  <-- counter did not repeat"
            print("  %-32s median %-14.6g spread %7.4f  bound %s%s" % (
                name, med, spread, bound, flag))
    if not args.trace:
        print("worst spread / bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
