"""Per-layer tracing of qqlab from the outside.

The tracer wraps the public functions of the package's modules and
rebinds every module-level name that refers to them, including the
copies that ``from .x import y`` made in other modules and the values
of module-level dicts (``harness._RUNNERS``).  Calls made through any
of those names then open a span with a parent link; a span's self time
is its duration minus the durations of its child spans.

Spans are recorded only while ``recording`` is set, which the benchmark
does inside its timed blocks, so its own checks, which call public
functions too, are not counted as program work.

Two passes use the same wrappers:

* ``mode="time"``: span counts, self times, amplitudes touched, and the
  query-kernel calls made under the analysis routines;
* ``mode="mem"``: transient bytes of each kernel call (tracemalloc peak
  during the call minus the traced size at its start), the nonzero share
  of returned states and report bytes written.  It runs with tracemalloc
  on, so its times are not used.

Kernel calls are classified by their arguments into the dispatch paths
of ``kernels.apply_matrix_inplace`` (0/1 permutation, 1 target, 2
targets, 3-4 targets) and the query, mass and readout kernels.  Kernel
spans are leaves: the helpers a path calls are part of the path.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("kernels", "qsim", "oracles", "programs", "analysis",
                  "harness", "cli", "rng")
KERNEL_ENTRY = {"apply_matrix_inplace": None, "apply_query": "query",
                "address_masses": "masses", "value_distribution": "readout"}
KERNEL_PATHS = ("permutation", "dense1", "dense2", "gather", "query", "masses",
                "readout")
# analysis routines whose query-kernel calls are counted
QUERY_PARENTS = ("analysis.adversary_bound_report", "analysis.pigeonhole_mutation_check")
MB = float(1 << 20)


class Tracer:
    def __init__(self, package):
        self.package = package
        self.kernels = package.kernels
        self.mode = "time"
        self.recording = False
        self._stack: list[list] = []
        self._patches: list[tuple] = []   # (namespace, key, original, wrapper)
        self._path_of: dict[int, tuple] = {}
        self.names = {name for name, *_ in self._targets()} | \
            {f"kernels.{p}" for p in KERNEL_PATHS}
        self.transient = defaultdict(int)
        self.nonzero = 0
        self.dimension = 0
        self.write_bytes = 0
        self.retained_bytes = 0
        self.reset_spans()

    def reset_spans(self):
        """Drop the span figures; the memory-pass figures are kept."""
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.amps = defaultdict(int)
        self.queries_under = defaultdict(int)
        self.report_rounds = 0

    # ------------------------------------------------------------------
    # spans

    def _enter(self, name):
        frame = [name, 0.0, 0.0, 0]   # name, start, child time, traced bytes at start
        if self.mode == "mem" and name.startswith("kernels."):
            tracemalloc.reset_peak()
            frame[3] = tracemalloc.get_traced_memory()[0]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        name = frame[0]
        duration = end - frame[1]
        self.calls[name] += 1
        self.self_s[name] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
        if name == "kernels.query":
            for parent in self._stack:
                if parent[0] in QUERY_PARENTS:
                    self.queries_under[parent[0]] += 1
        if self.mode == "mem" and name.startswith("kernels."):
            peak = tracemalloc.get_traced_memory()[1]
            self.transient[name] = max(self.transient[name], peak - frame[3])

    def _span(self, name, fn, args, kwargs):
        frame = self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    # ------------------------------------------------------------------
    # wrappers

    def _matrix_path(self, bits, matrix):
        # matrices of admitted gates are read-only and live as long as their
        # gate; the cache keeps a reference so an id is never reused
        hit = self._path_of.get(id(matrix))
        if hit is None:
            if self.kernels.as_permutation(matrix) is not None:
                path = "kernels.permutation"
            else:
                path = ("kernels.dense1", "kernels.dense2")[len(bits) - 1] \
                    if len(bits) <= 2 else "kernels.gather"
            hit = (matrix, path)
            self._path_of[id(matrix)] = hit
        return hit[1]

    def _wrap_kernel(self, fname, fn):
        tracer = self
        fixed = KERNEL_ENTRY[fname]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            amps = args[0]
            if fixed is None:
                name = tracer._matrix_path(args[2], args[3])
            else:
                name = "kernels." + fixed
            tracer.amps[name] += amps.size
            return tracer._span(name, fn, args, kwargs)
        return wrapper

    def _wrap_function(self, name, fn):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.recording:
                        try:
                            yield next(it)
                        except StopIteration:
                            return
                        continue
                    frame = tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._stack.pop()
                        return
                    finally:
                        if tracer._stack and tracer._stack[-1] is frame:
                            tracer._exit(frame)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            if name == "analysis.adversary_bound_report":
                tracer.report_rounds += args[1].t
            out = tracer._span(name, fn, args, kwargs)
            if tracer.mode == "mem":
                tracer._inspect_result(name, out, args)
            return out
        return wrapper

    def _inspect_result(self, name, out, args):
        if name in ("programs.run", "programs.run_final"):
            states = out.states if name == "programs.run" else (out,)
            for s in states:
                self.nonzero += int(np.count_nonzero(s.amplitudes))
                self.dimension += s.amplitudes.size
        elif name == "harness.write":
            path = str(args[1])
            for p in (path, os.path.splitext(path)[0] + ".json"):
                self.write_bytes += os.path.getsize(p)

    def _targets(self):
        """(span name, namespace, attribute, original) for every wrapped callable."""
        pkg = self.package
        out = []
        for mod_name in TRACED_MODULES:
            mod = getattr(pkg, mod_name)
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if mod_name == "kernels" and attr not in KERNEL_ENTRY:
                    continue
                out.append((f"{mod_name}.{attr}", mod, attr, obj))
        out.append(("qsim.admission", pkg.qsim.LocalUnitary, "__init__",
                    pkg.qsim.LocalUnitary.__init__))
        for cls in (pkg.harness.ExperimentReport, pkg.harness.CensusReport):
            out.append(("harness.write", cls, "write", cls.write))
        return out

    def install(self):
        """Rebind every reference to a wrapped function in the package."""
        if self._patches:
            return
        replace = {}
        for name, owner, attr, fn in self._targets():
            if name.startswith("kernels."):
                wrapper = self._wrap_kernel(attr, fn)
            else:
                wrapper = self._wrap_function(name, fn)
            replace[id(fn)] = (fn, wrapper)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn, wrapper))
        modules = [m for k, m in sys.modules.items()
                   if k == self.package.__name__ or k.startswith(self.package.__name__ + ".")]
        for mod in modules:
            ns = vars(mod)
            for key, value in list(ns.items()):
                if id(value) in replace and replace[id(value)][0] is value:
                    self._patches.append((ns, key, value, replace[id(value)][1]))
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k2, v2 in value.items():
                        if id(v2) in replace and replace[id(v2)][0] is v2:
                            self._patches.append((value, k2, v2, replace[id(v2)][1]))
        self._apply(wrapped=True)

    def uninstall(self):
        self._apply(wrapped=False)
        self._patches = []

    def _apply(self, wrapped: bool):
        for owner, key, original, wrapper in self._patches:
            value = wrapper if wrapped else original
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    # ------------------------------------------------------------------
    # memory pass

    @contextlib.contextmanager
    def memory_pass(self):
        self.mode = "mem"
        gc.collect()
        tracemalloc.start(1)
        try:
            yield
            gc.collect()
            snap = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, self.kernels.__file__)])
            self.retained_bytes = sum(s.size for s in snap.statistics("filename"))
        finally:
            tracemalloc.stop()
            self.mode = "time"

    # ------------------------------------------------------------------
    # report

    def metrics(self, rounds: int) -> dict:
        """Per-round span figures, plus the figures of the memory pass."""
        per = 1.0 / rounds
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name] * per
            out[f"{name}.self_s"] = self.self_s[name] * per
        for p in KERNEL_PATHS:
            key = f"kernels.{p}"
            out[f"{key}.amps"] = self.amps[key] * per
            out[f"{key}.transient_mb"] = self.transient[key] / MB
        out["kernels.retained_mb"] = self.retained_bytes / MB
        out["programs.nonzero_share"] = (self.nonzero / self.dimension
                                         if self.dimension else 0.0)
        reports = self.queries_under["analysis.adversary_bound_report"]
        out["analysis.adversary_bound_report.queries_per_round"] = (
            reports / self.report_rounds if self.report_rounds else 0.0)
        out["analysis.pigeonhole_mutation_check.queries"] = (
            self.queries_under["analysis.pigeonhole_mutation_check"] * per)
        out["harness.write.bytes"] = float(self.write_bytes)
        return out
