#!/usr/bin/env python3
"""Host benchmark entry point.

    python3 perfbench/run.py --calib-ref-ms MS --workload NAME --seed N
                             --seconds S --trace 0|1

Run from the root of a source tree.  Builds the OCaml benchmark program
(perfbench/_src) against the tree's own libraries in a private dune
workspace under $CARGO_TARGET_DIR (default .bench_build), then runs one
workload in a child process pinned to one CPU.  The child prints the result JSON as the
last line of standard output.  Build output goes to standard error.

--calib-ref-ms is the calibration loop's time on the reference machine,
fixed in BENCHMARK.json's command: every host time is rescaled by it over
the loop time measured around the same round, so figures read in
reference-machine time.  Changing it rescales every host-time metric.

Exits non-zero without a result when the tree has no libraries to build
against, when the build fails, or when the child fails or overruns.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("dse-sweep", "store-32k", "range-acam", "tcp-hdc")
HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, "_src")
CHILD_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sync_tree(root, ws):
    """Copy the tree's dune project (every top-level source directory)
    into the workspace, keeping mtimes so unchanged files do not
    rebuild, and put the benchmark package at ws/perfbench."""
    os.makedirs(ws, exist_ok=True)
    wanted = {}
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if name.startswith((".", "_")) or name == "perfbench":
            continue
        if os.path.isdir(path) and not os.path.islink(path):
            wanted[name] = path
        elif name in ("dune-project", "dune"):
            wanted[name] = path
    wanted["perfbench"] = SRC
    for name in os.listdir(ws):
        if name != "_build" and name not in wanted:
            target = os.path.join(ws, name)
            if os.path.isdir(target):
                shutil.rmtree(target)
            else:
                os.remove(target)
    for name, path in wanted.items():
        target = os.path.join(ws, name)
        if os.path.isdir(path):
            if os.path.isdir(target):
                shutil.rmtree(target)
            shutil.copytree(path, target, symlinks=False)
        else:
            shutil.copy2(path, target)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--calib-ref-ms", type=float, required=True)
    args = ap.parse_args()
    if args.workload not in WORKLOADS:
        fail("unknown workload %r (known: %s)" % (args.workload, ", ".join(WORKLOADS)))
    if not args.calib_ref_ms > 0:
        fail("--calib-ref-ms must be positive")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "dune-project"))
            and os.path.isdir(os.path.join(root, "lib"))):
        fail("run from the root of the source tree (no dune-project/lib here)")
    if not os.path.isfile(os.path.join(SRC, "dune")):
        fail("benchmark sources missing under " + SRC)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    ws = os.path.join(root, build, "ws")
    sync_tree(root, ws)
    env = dict(os.environ, DUNE_CACHE="disabled")
    target = "./perfbench/perfbench.exe"
    built = subprocess.run(
        ["dune", "build", "--root", ws, "--profile", "release", target],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if built.returncode != 0:
        fail("build failed (dune exit %d)" % built.returncode)
    exe = os.path.join(ws, "_build", "default", "perfbench", "perfbench.exe")
    trace_out = os.path.join(
        root, build, "trace-%s-%d.json" % (args.workload, args.seed))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--calib-ref-ms", repr(args.calib_ref_ms), "--trace-out", trace_out]
    # One CPU for the whole workload process: on a shared 2-vCPU VM the
    # cost of waking a thread on the other vCPU swings by 2x from minute
    # to minute, which no calibration loop tracks.
    cpu = max(os.sched_getaffinity(0))
    try:
        child = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S,
                               preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        fail("workload overran %d s" % CHILD_TIMEOUT_S)
    sys.exit(child.returncode)


if __name__ == "__main__":
    main()
