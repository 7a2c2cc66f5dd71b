"""One workload in one process: build its inputs, run whole rounds of its
operations, and print one JSON line with counts and metrics.

Started by run.py with BLAS/OpenMP threads pinned to 1, a fixed
PYTHONHASHSEED and PYTHONPATH pointing at the checkout's src/.

  python3 perfbench/measure.py --workload haar --seed 1 --seconds 20 --trace 0
  python3 perfbench/measure.py --workload haar --seed 1 --setup-only   # prints time.monotonic()

Every operation is timed between two runs of the workload's calibration
loop (speed.py), and its program time is scaled to the reference speed.

Untraced (--trace 0): one warm-up round fills lazy caches, then rounds
repeat until the next one would end after --seconds (at least
MIN_ROUNDS).  wall_s is the mean over those rounds of a round's program
time at the reference speed; the unscaled mean goes to standard error.

Traced (--trace 1): a first round with tracemalloc on gives transient and
retained bytes; then untraced and span-traced rounds alternate until
--seconds, giving per-round span figures and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from functools import partial

from speed import Speed
from tracer import Tracer
from workloads import WORKLOADS, CheckFailed, OpFailed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_ROUNDS = 2


class Clock:
    """Accumulates the time spent inside its `with` blocks; the tracer
    records spans only inside them."""

    def __init__(self, tracer=None):
        self.elapsed = 0.0
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.recording = True
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed += time.perf_counter() - self.start
        if self.tracer is not None:
            self.tracer.recording = False
        return False


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.reported: set[str] = set()

    def note(self, name, message):
        if name not in self.reported:
            self.reported.add(name)
            print(f"[{name}] {message}", file=sys.stderr)


def attempt(name, op, clock, tally) -> float:
    tally.attempted += 1
    try:
        op(clock)
    except CheckFailed as e:
        tally.incorrect += 1
        tally.note(name, f"INCORRECT: {e}")
    except OpFailed as e:
        tally.failed += 1
        tally.note(name, f"failed: {e}")
    except Exception:
        tally.failed += 1
        tally.note(name, "failed:\n" + traceback.format_exc())
    return clock.elapsed


def run_round(workload, tally, speed, tracer=None) -> tuple[float, float]:
    """One round; its program time as measured and at the reference speed."""
    measured = scaled = 0.0
    for name, op in workload.ops:
        elapsed, at_reference = speed.scale(partial(attempt, name, op, Clock(tracer), tally))
        measured += elapsed
        scaled += at_reference
    return measured, scaled


def keep_going(round_times, started, seconds, minimum):
    """Start another round while fewer than `minimum` ran or the next one,
    at the median round time so far, would end within `seconds`."""
    if len(round_times) < minimum:
        return True
    return time.perf_counter() - started + statistics.median(round_times) <= seconds


def measure(workload, seconds, tally, speed) -> dict:
    run_round(workload, tally, speed)              # warm-up
    measured, scaled = [], []
    started = time.perf_counter()
    while keep_going(measured, started, seconds, MIN_ROUNDS):
        m, s = run_round(workload, tally, speed)
        measured.append(m)
        scaled.append(s)
    print(f"{len(measured)} rounds, unscaled mean {statistics.fmean(measured):.4f} s",
          file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"wall_s": statistics.fmean(scaled), "peak_rss_mb": peak_kb / 1024.0}


def trace(qqlab, workload, seconds, tally, speed) -> dict:
    tracer = Tracer(qqlab)
    tracer.install()
    with tracer.memory_pass():
        run_round(workload, tally, speed, tracer)
    tracer.reset_spans()
    tracer.uninstall()
    untraced, traced, pairs = [], [], []
    started = time.perf_counter()
    while keep_going(pairs, started, seconds, 1):
        m0, untraced_s = run_round(workload, tally, speed)
        tracer.install()
        m1, traced_s = run_round(workload, tally, speed, tracer)
        tracer.uninstall()
        untraced.append(untraced_s)
        traced.append(traced_s)
        pairs.append(m0 + m1)
    out = tracer.metrics(len(traced))
    out["bench.trace_overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import qqlab
    import qqlab.cli  # noqa: F401  (the tracer wraps it; sweeps call it)

    workdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](qqlab, args.seed, workdir)
        if args.setup_only:
            print(time.monotonic())     # run.py subtracts its spawn time
            return 0
        tally = Tally()
        speed = Speed(workload.speed)
        if args.trace:
            metrics = trace(qqlab, workload, args.seconds, tally, speed)
        else:
            metrics = measure(workload, args.seconds, tally, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(json.dumps({"correct": tally.incorrect == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
