"""qqlab benchmark: one command, three workloads, every metric by name.

  python3 perfbench/run.py --workload emulation --seed 1 --seconds 20 --trace 0

Run from anywhere inside a qqlab checkout; the program is imported from
the checkout's src/.  Each workload runs in its own process (measure.py)
on one thread: OpenBLAS, OpenMP and MKL threads are pinned to 1 and
PYTHONHASHSEED is fixed.  With --trace 0 the end-to-end metrics of
BENCHMARK.json are printed, with --trace 1 the per-layer ones; the last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

setup_s is the median over SETUP_SAMPLES separate start-ups of the time
from starting the process to the workload's inputs being built
(interpreter start, `import qqlab`, input construction), each scaled to
the reference speed by the Python calibration loop of speed.py run just
before and after it.  The child prints the system-wide monotonic clock
when its inputs are built; waiting for its exit with a timeout polls in
steps of up to 50 ms and would quantise the figure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from speed import Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 15
DEADLINE_S = 175.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0"}


def fail(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QQLAB_QUBIT_CAP"}
    env.update(PINNED)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qqlab benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "qqlab", "__init__.py")):
        return fail(f"no qqlab sources under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        return fail(f"unknown workload {args.workload!r}")

    env = child_env()
    child = [sys.executable, os.path.join(HERE, "measure.py"),
             "--workload", args.workload, "--seed", str(args.seed)]
    setup = []
    if not args.trace:
        def start_up():
            t0 = time.monotonic()
            probe = subprocess.run(child + ["--setup-only"], env=env, cwd=ROOT,
                                   stdout=subprocess.PIPE, text=True, timeout=60)
            if probe.returncode != 0:
                raise SystemExit(fail(f"set-up exited {probe.returncode}"))
            return float(probe.stdout.split()[-1]) - t0

        speed = Speed("python")
        setup = [speed.scale(start_up)[1] for _ in range(SETUP_SAMPLES)]

    budget = DEADLINE_S - (time.perf_counter() - started)
    try:
        done = subprocess.run(child + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)],
                              env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        return fail(f"workload did not finish within {budget:.0f} s")
    if done.returncode != 0:
        return fail(f"workload exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])

    measured = dict(result["metrics"])
    if setup:
        measured["setup_s"] = statistics.median(setup)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        return fail(f"metrics not measured: {missing}")
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
