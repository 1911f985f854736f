#!/usr/bin/env python3
"""The benchmark's own self-test.

    python3 perfbench/selftest/selftest.py [--seconds 2]

Run from the repository root. It checks that:
  * a brief untraced and a brief traced run of every workload print a
    result line with exactly the keys correct/attempted/failed/metrics,
    are correct with no failures, and carry every metric BENCHMARK.json
    names for that mode as a finite number with its unit;
  * the report line carries the machine context;
  * a fault-injecting handler (one corrupted value, one swallowed
    response) shows up in the failure counts and in error_rate.
Exits non-zero on the first failed check.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
CONTEXT_KEYS = {"nproc", "build_type", "compiler", "kernel", "source", "network"}


def run(workload, seconds, trace, inject_faults=0):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(seconds), "--trace",
           str(trace), "--inject-faults", str(inject_faults)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    check(out.returncode == 0 and len(lines) >= 2,
          f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
    check(lines[-2].startswith("report "), f"{workload}: no report line")
    return json.loads(lines[-2][len("report "):]), json.loads(lines[-1])


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg, flush=True)
        sys.exit(1)


def check_result(workload, trace, report, result, wanted):
    where = f"{workload} trace={trace}"
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{where}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{where}: not correct: {report['failures']}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{where}: attempted {result['attempted']}")
    check(list(result["metrics"]) == [m["name"] for m in wanted],
          f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"][m["name"]]
        check(set(got) == {"value", "unit"} and got["unit"] == m["unit"] and got["unit"],
              f"{where}: {m['name']} unit {got}")
        value = got["value"]
        check(isinstance(value, (int, float)) and math.isfinite(value),
              f"{where}: {m['name']} = {value!r}")
        if not trace:
            check(value > 0, f"{where}: end-to-end {m['name']} is {value}")
    check(CONTEXT_KEYS <= set(report["context"]),
          f"{where}: context lacks {CONTEXT_KEYS - set(report['context'])}")
    check(report["error_rate"] == 0, f"{where}: error_rate {report['error_rate']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)

    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            report, result = run(workload, args.seconds, trace)
            wanted = bench["per_layer"] if trace else bench["end_to_end"]
            check_result(workload, trace, report, result, wanted)
            print(f"ok: {workload} trace={trace}: {len(wanted)} metrics, "
                  f"{result['attempted']} ops checked", flush=True)

    report, result = run("cache-read", args.seconds, 0, inject_faults=1)
    f = report["failures"]
    check(f["corrupt"] >= 1, f"injected corruption not counted: {f}")
    check(f["timeout"] + f["disconnect"] >= 1, f"dropped response not counted: {f}")
    check(result["failed"] >= 2 and result["correct"] is False,
          f"faults not reflected in the result: {result['failed']}")
    check(report["error_rate"] > 0, f"error_rate {report['error_rate']}")
    print(f"ok: injected faults counted: {f}, error_rate {report['error_rate']:.3g}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
