#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the library sources it
links) into .bench_build, runs one measurement, and prints two lines: a
"report" line with everything the run measured (failure counts by kind,
bases, sample counts, machine context), then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
per-layer metrics (--trace 1), each with its unit. Exits non-zero without a
result line when it cannot build or run.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured for another checkout
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + generator
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(max(1, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_revision():
    """The git commit when there is one, else a digest of the library sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()


def run_binary(argv):
    """Runs the benchmark binary; returns its JSON line, or None."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("run timed out")
        return None
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        log(f"no output (exit code {proc.returncode})")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log("unparsable output: " + lines[-1][:200])
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-faults", type=int, choices=(0, 1), default=0,
                        help="self-test only: corrupt one value, drop one response")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            bench = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 2
    if not build():
        log("build failed")
        return 2

    run = run_binary([os.path.join(BUILD_DIR, "perfbench"),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--inject-faults", str(args.inject_faults)])
    if run is None or not run.get("completed"):
        if run is not None:
            log("run did not complete: " + json.dumps(run))
        return 1
    run["context"]["source"] = source_revision()

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    correct = run["failed"] == 0
    for m in wanted:
        value = run["metrics"].get(m["name"])
        if value is None:
            if not args.trace:
                log(f"end-to-end metric {m['name']} was not measured")
                return 1
            value = 0.0  # a layer this workload does not exercise
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            correct = False
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print("report " + json.dumps(run, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
