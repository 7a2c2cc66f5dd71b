"""Reference figures: run the benchmark on several seeds and print, per
workload and end-to-end metric, the median, the quartiles and the spread
(quartile distance over median), plus the failed share of operations.

  python3 perfbench/reference.py                       # seeds 1-10, all workloads
  python3 perfbench/reference.py --seeds 1001
  python3 perfbench/reference.py --trace               # per-layer medians

Runs one benchmark process at a time, with BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            results.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"<!-- {workload} seed {seed}: {time.perf_counter() - t0:.1f} s, "
                  + ", ".join(f"{k} {v['value']:.6g}" for k, v in results[-1]["metrics"].items()
                              if not args.trace) + " -->", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"## {workload}: {len(results)} runs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
              f"correct={correct}, failed share {sorted(shares)}")
        print("| metric | unit | median | q1 | q3 | spread |")
        print("|---|---|---|---|---|---|")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {first['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} |")
        print(flush=True)


if __name__ == "__main__":
    main()
