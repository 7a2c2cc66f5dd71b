"""Calibration loops: fixed work of the benchmark's own that tracks the
host's speed.

The reference machine is a virtual machine on a shared host whose speed
changes by up to 1.7x within seconds and drifts over minutes.  Interpreter
-bound code slows the most, numpy passes over arrays less.  A loop of the
same kind of work as the code being timed, run just before and just after
it, slows with it: on the Python-bound sweeps workload, round times that
ranged over 1.46x between five runs ranged over 1.06x once scaled this
way.  A time t measured next to loop times c0 and c1 is reported as
t * REFERENCE_S / ((c0 + c1) / 2): seconds at the speed at which the loop
takes REFERENCE_S, about its time in the reference machine's fast mode.
"""

from __future__ import annotations

import time
from functools import partial

import numpy as np

REFERENCE_S = 1.0e-3
_INTS = list(range(20000))


def python_loop() -> float:
    """Interpreter work: a loop of integer arithmetic (~1 ms)."""
    t0 = time.perf_counter()
    s = 0
    for v in _INTS:
        s += v * v
    return time.perf_counter() - t0


def numpy_loop(array) -> float:
    """Array work: four in-place passes over `array` (~1 ms)."""
    t0 = time.perf_counter()
    for _ in range(4):
        np.multiply(array, 1.0, out=array)
    return time.perf_counter() - t0


class Speed:
    """Scales times measured between two runs of one calibration loop."""

    def __init__(self, kind: str):
        if kind == "python":
            self.loop = python_loop
        else:       # 4 MB, as an 18-qubit state
            self.loop = partial(numpy_loop, np.ones(1 << 18, dtype=np.complex128))

    def scale(self, timed):
        """Run timed() between two loop runs; return (its elapsed seconds
        as it returns them, that time at the reference speed)."""
        before = self.loop()
        elapsed = timed()
        after = self.loop()
        return elapsed, elapsed * REFERENCE_S / ((before + after) / 2)
