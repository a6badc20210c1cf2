#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 relbench/run.py --workload long-cdl --seed 1 --seconds 10 --trace 0

Builds relbench_driver (and the simulator libraries it links) from
source into .bench_build/relbench, runs one workload in one process,
checks its outputs and prints every metric by name with its unit. The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (HostProf off); --trace 1 the
per-layer metrics (HostProf on, the layer ladder, the memory-growth
probe). See relbench/README.md for every metric and workload.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "relbench"
WORKLOADS = ("long-cdl", "functional-cdghl", "serve-bursty")
DRIVER_TIMEOUT_S = 150


def fail(message, code=1):
    print("relbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("simulator sources (src/) not found next to relbench/", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", "4",
                      "--target", "relbench_driver"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                fail("build failed:\n" + "\n".join(tail))
    return BUILD / "relbench_driver"


def run_driver(driver, args, mode, extra):
    scratch = BUILD / "scratch"
    scratch.mkdir(exist_ok=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--scratch", str(scratch)] + extra
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        fail("driver exited with %d:\n%s" % (proc.returncode,
                                             proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    doc = json.loads(lines[-1])
    if doc["workload"] != args.workload or doc["mode"] != mode:
        fail("driver answered for another workload or mode")
    return doc


def print_table(title, header, rows):
    print(title)
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    for row in [header] + rows:
        print("  " + "  ".join(str(v).ljust(w) for v, w in zip(row, widths)))


def report(doc, values, scoped):
    failed_frac = metrics.ratio(doc["failed"], doc["attempted"])
    print("relbench %s seed %d (%s): digest %s, %d checked runs, "
          "failed_frac %.4g" % (doc["workload"], doc["seed"], doc["mode"],
                                doc["digest"], doc["attempted"], failed_frac))
    for failure in doc["failures"]:
        print("  FAILED " + failure)
    if doc["mode"] == "traced":
        rows = []
        for layer, (ns, count, pred, self_ns, of) in \
                metrics.layer_table(doc).items():
            rows.append([layer, "%.4g" % ns, "%.6g" % count,
                         "%.4g" % (pred / 1e9), "%.4g" % (self_ns / 1e9),
                         "%.3f" % metrics.explained_frac(pred, self_ns)
                         if self_ns else "n/a", of])
        print_table("ladder vs HostProf, per profiled run:",
                    ["layer", "ns/op", "count", "ladder_s", "self_s",
                     "explained", "self time of"], rows)
        print_table("ladder parameters from the profiled runs:",
                    ["name", "value"],
                    [[k, "%.6g" % v]
                     for k, v in sorted(doc["ladder_params"].items())])
        print_table("defined on %s only (not reported as metrics):"
                    % doc["workload"], ["name", "value", "unit"],
                    [[k, "%.6g" % v, u] for k, (v, u) in sorted(scoped.items())])
    print_table("metrics:", ["name", "value", "unit"],
                [[k, "%.6g" % v, u] for k, (v, u) in sorted(values.items())])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Fault injection for relbench's own tests: each must fail the run.
    parser.add_argument("--perturb-gru", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-digest", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    start = time.monotonic()
    driver = build()
    extra = (["--perturb-gru"] if args.perturb_gru else []) + \
        (["--corrupt-digest"] if args.corrupt_digest else [])
    mode = "traced" if args.trace else "e2e"
    doc = run_driver(driver, args, mode, extra)
    if args.trace:
        values, scoped = metrics.per_layer(doc)
    else:
        values, scoped = metrics.end_to_end(doc), {}
    report(doc, values, scoped)
    print("relbench: %.1f s wall including build" % (time.monotonic() - start),
          file=sys.stderr)
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in values.items()},
    }))


if __name__ == "__main__":
    os.environ.setdefault("LC_ALL", "C")
    main()
