#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run:
    python3 perfbench/run.py --workload fig6|swap|tenants|serve \
        --seed N --seconds S --trace 0|1

builds perfbench/ (which compiles the simulator from src/) into
$CARGO_TARGET_DIR or .bench_build, runs the workload, and prints as
its last line one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 gives the end-to-end metrics, --trace 1
the per-layer ones. For `tenants` it also re-runs one round on a
single thread and fails the run unless the digest is the same.

Steadiness mode:
    python3 perfbench/run.py --steady 10 [--workloads a,b] [--seconds S]

runs every workload BENCHMARK.json names (or those given) that many times with a new seed each time,
alternating the workload order, and prints the median, quartiles and
spread ((q3 - q1) / median) of every end-to-end metric next to its
bound in BENCHMARK.json.

Run from the repository root. Exit status 0 means every check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["fig6", "swap", "tenants", "serve"]


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configure (once) and build the benchmark; build output goes to
    stderr so that stdout ends with the result line."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no simulator sources next to perfbench/; "
                         "run from a full checkout\n")
        sys.exit(2)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit(2)
    cmd = ["cmake", "--build", out, "--target", "mosaic_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit(2)
    return os.path.join(out, "mosaic_perfbench")


def run_binary(binary, args, echo):
    """Run the benchmark binary; return its result record, or None if it
    printed none."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_once(binary, workload, seed, seconds, trace, echo=True):
    state = os.path.join(build_dir(), "serve_state_%d" % os.getpid())
    common = ["--workload", workload, "--seed", str(seed), "--state-dir", state]
    record = run_binary(binary, common + ["--seconds", str(seconds),
                                          "--trace", str(trace)], echo)
    if record is None:
        return None
    if workload == "tenants" and record["correct"]:
        # Thread invariance: one round on one thread must give the digest
        # of the run on the workload's thread count.
        single = run_binary(binary, common + ["--seconds", "0", "--trace", "0",
                                              "--threads", "1"], False)
        if single is None or single["digest"] != record["digest"]:
            if echo:
                print("CHECK FAILED: tenants digest differs at 1 thread")
            record["correct"] = False
            record["failed"] += 1
            record["metrics"] = {}
    return record


def load_spec():
    """BENCHMARK.json, or None when it is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def steady(binary, workloads, runs, seconds):
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if spec else {}
    values = {w: {} for w in workloads}
    ok = True
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            record = run_once(binary, w, 1000 + i, seconds, 0, echo=False)
            if record is None or not record["correct"]:
                print("run %d of %s failed" % (i, w))
                ok = False
                continue
            for name, m in record["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("run %d %-8s %s" % (i, w, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in record["metrics"].items())),
                flush=True)
    print("\n%-8s %-14s %12s %12s %12s %8s %6s" %
          ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
    for w in workloads:
        for name, v in values[w].items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            print("%-8s %-14s %12.6g %12.6g %12.6g %8.4f %6s" %
                  (w, name, med, q1, q3, spread, bounds.get(name, "-")))
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, metavar="RUNS",
                   help="steadiness mode: RUNS runs of each workload")
    p.add_argument("--workloads",
                   help="workloads of the steadiness mode, comma-separated "
                        "(default: those BENCHMARK.json names)")
    args = p.parse_args()
    if args.steady is None and args.workload is None:
        p.error("--workload or --steady is required")

    binary = build()
    if args.steady is not None:
        if args.workloads:
            workloads = [w for w in args.workloads.split(",") if w]
        else:
            spec = load_spec()
            workloads = [w["name"] for w in spec["workloads"]] if spec else WORKLOADS
        sys.exit(0 if steady(binary, workloads, args.steady, args.seconds) else 1)

    record = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    if record is None:
        sys.stderr.write("perfbench: the benchmark printed no result\n")
        sys.exit(1)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed",
                                             "metrics")}))
    sys.exit(0 if record["correct"] else 1)


if __name__ == "__main__":
    main()
