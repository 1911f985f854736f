#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/selftest/spread.py [--workloads a,b] [--runs 10]
        [--first-seed 1] [--heldout-seed 1001 [--heldout-runs N]]
        [--seconds S] [--out FILE]

Run from the repository root. For each workload it runs perfbench/run.py
once per seed (first-seed, first-seed+1, ...) and prints, per end-to-end
metric, the median, the quartile spread (q3 - q1) / median as
statistics.quantiles(values, n=4) gives it, and the metric's bound from
BENCHMARK.json. A spread above its bound fails (setup_s excepted: its
bound gates only the median); one above a third of it is flagged.

With --heldout-seed it repeats the runs on seeds starting there and
checks each metric's held-out median against the first median within the
metric's bound, in its worse direction.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def runs(workload, seeds, seconds):
    results = []
    for seed in seeds:
        r = run_once(workload, seed, seconds)
        if not r["correct"]:
            raise RuntimeError(f"{workload} seed {seed}: incorrect result {r}")
        results.append(r)
        print(f"  {workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
    return results


def summarize(results, metric):
    values = [r["metrics"][metric]["value"] for r in results]
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return values, median, spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--heldout-seed", type=int)
    parser.add_argument("--heldout-runs", type=int, help="default: --runs")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", help="write every run's result here (JSON)")
    args = parser.parse_args()

    record = {}
    ok = True
    for workload in args.workloads.split(","):
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        results = runs(workload, seeds, args.seconds)
        record[workload] = {"seeds": seeds, "results": results}
        heldout = None
        if args.heldout_seed is not None:
            hruns = args.heldout_runs or args.runs
            hseeds = list(range(args.heldout_seed, args.heldout_seed + hruns))
            heldout = runs(workload, hseeds, args.seconds)
            record[workload]["heldout"] = {"seeds": hseeds, "results": heldout}
        print(f"{workload}:")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            _, median, spread = summarize(results, name)
            verdict = "ok"
            if name != "setup_s" and spread > bound:
                verdict, ok = "FAIL", False
            elif name != "setup_s" and spread > bound / 3:
                verdict = "wide"
            line = (f"  {name:14s} median {median:14.6g}  spread {spread:7.4f}"
                    f"  bound {bound:5.3f}  {verdict}")
            if heldout is not None:
                _, hmedian, _ = summarize(heldout, name)
                worse = (hmedian - median) / median
                if m["better"] == "higher":
                    worse = -worse
                hv = "ok" if worse <= bound else "FAIL"
                ok = ok and hv == "ok"
                line += f"  | held-out median {hmedian:14.6g} worse by {worse:+.4f} {hv}"
            print(line, flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
