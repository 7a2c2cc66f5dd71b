"""Per-kernel time and transient memory by qubit count.

  python3 perfbench/kernel_table.py

Calls the public entry points of qqlab.kernels directly on one thread:
the dispatch paths of apply_matrix_inplace (a 0/1 permutation, a dense
1-target and 2-target gate, a 4-target gather gate), the XOR query, the
address masses and the readout distribution.  The query register has
n = 4 bits, as in the 24-qubit emulation layout.  At 12, 18, 21 and 24
qubits, time is the median of 7 warm calls; transient memory is the tracemalloc peak during a call
minus the traced size at its start, for the first (cold: index-table
caches are filled) and the second (warm) call at that size.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
N = 4
QUBITS = (12, 18, 21, 24)
REPS = 7
MB = float(1 << 20)


def kernel_calls(kernels, nbits, rng, np):
    from qqlab.qsim import haar_unitary
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=np.complex128)
    fvals = rng.integers(0, 1 << N, size=1 << N)
    u1, u2, u4 = (haar_unitary(d, rng) for d in (2, 4, 16))
    hi = nbits - 1
    return {
        "permutation": lambda a: kernels.apply_matrix_inplace(a, nbits, (hi, 1), cnot),
        "dense1": lambda a: kernels.apply_matrix_inplace(a, nbits, (hi - 2,), u1),
        "dense2": lambda a: kernels.apply_matrix_inplace(a, nbits, (hi - 1, 2), u2),
        "gather": lambda a: kernels.apply_matrix_inplace(a, nbits, (hi, hi - 3, 5, 0), u4),
        "query": lambda a: kernels.apply_query(a, nbits, N, fvals),
        "masses": lambda a: kernels.address_masses(a, N),
        "readout": lambda a: kernels.value_distribution(a, nbits, (hi, hi - 1, hi - 2, hi - 3)),
    }


def transient(call, amps):
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    call(amps)
    return (tracemalloc.get_traced_memory()[1] - start) / MB


def main():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"           # before numpy loads its BLAS
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np
    from qqlab import kernels

    rng = np.random.default_rng(0)
    print("| kernel | qubits | median ms | q1 ms | q3 ms | cold transient MB | warm transient MB |")
    print("|---|---|---|---|---|---|---|")
    for nbits in QUBITS:
        amps = rng.standard_normal(1 << nbits) + 1j * rng.standard_normal(1 << nbits)
        amps /= np.linalg.norm(amps)
        for name, call in kernel_calls(kernels, nbits, rng, np).items():
            tracemalloc.start(1)
            cold, warm = transient(call, amps), transient(call, amps)
            tracemalloc.stop()
            times = []
            for _ in range(REPS):
                t0 = time.perf_counter()
                call(amps)
                times.append(time.perf_counter() - t0)
            q1, _, q3 = statistics.quantiles(times, n=4)
            med = statistics.median(times)
            print(f"| {name} | {nbits} | {med * 1e3:.3f} | {q1 * 1e3:.3f} | {q3 * 1e3:.3f} "
                  f"| {cold:.1f} | {warm:.1f} |", flush=True)
        del amps


if __name__ == "__main__":
    main()
