"""Run the benchmark on several seeds and report each end-to-end metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads construct_large --seeds 1-5

Runs ``perfbench/run.py --trace 0`` once per (workload, seed), one run at a
time, with ``run_seconds`` from BENCHMARK.json, and prints for every
end-to-end metric the median and the interquartile spread
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values = {}
        for seed in range(int(lo), int(hi or lo) + 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
        for name, xs in values.items():
            q1, med, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / med
            print(f"  {workload:16} {name:12} median {med:.6g}  spread {share:.4f}  "
                  f"bound {bounds[name]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
