"""The reshape-view kernels against the index-table formulas they replaced.

The references build full-size int64 index tables, as the kernels once did,
and must agree with the kernels bit for bit.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from qqlab import kernels
from qqlab.qsim import haar_unitary
from qqlab.rng import generator


def gather_reference(amps, nbits, bits, matrix):
    """Row l of the table holds the flat indices whose target bits read l."""
    k = len(bits)
    rest = [b for b in range(nbits) if b not in bits]
    r = np.arange(1 << len(rest), dtype=np.int64)
    base = np.zeros(1 << len(rest), dtype=np.int64)
    for i, b in enumerate(rest):
        base |= ((r >> i) & 1) << b
    offs = np.zeros(1 << k, dtype=np.int64)
    for l in range(1 << k):
        for j in range(k):
            if (l >> (k - 1 - j)) & 1:
                offs[l] |= 1 << bits[j]
    gat = offs[:, None] | base[None, :]
    out = amps.copy()
    out[gat] = matrix @ amps[gat]
    return out


def query_reference(amps, nbits, n, fvals):
    idx = np.arange(1 << nbits, dtype=np.int64)
    pattern = (fvals.astype(np.int64) << n)[idx & ((1 << n) - 1)]
    return amps[idx ^ pattern]


def readout_reference(amps, nbits, bits):
    idx = np.arange(1 << nbits, dtype=np.int64)
    k = len(bits)
    vals = np.zeros(1 << nbits, dtype=np.int64)
    for j, b in enumerate(bits):
        vals |= ((idx >> b) & 1) << (k - 1 - j)
    p = amps.real ** 2 + amps.imag ** 2
    return np.bincount(vals, weights=p, minlength=1 << k)


def random_amps(nbits, rng):
    return rng.standard_normal(1 << nbits) + 1j * rng.standard_normal(1 << nbits)


def pick_bits(nbits, k, rng):
    return tuple(int(b) for b in rng.choice(nbits, size=k, replace=False))


@pytest.mark.parametrize("trial", range(40))
def test_gather_gate_matches_index_table(trial):
    rng = generator(41, "gather", trial)
    nbits = int(rng.integers(3, 17))
    k = int(rng.integers(3, min(4, nbits) + 1))
    bits = pick_bits(nbits, k, rng)
    matrix = haar_unitary(1 << k, rng)
    amps = random_amps(nbits, rng)
    ref = gather_reference(amps, nbits, bits, matrix)
    kernels.apply_matrix_inplace(amps, nbits, bits, matrix)
    assert np.array_equal(amps, ref)


@pytest.mark.parametrize("nbits,bits", [(3, (2, 1, 0)), (4, (0, 3, 1, 2)),
                                        (12, (11, 10, 9, 8)), (12, (11, 10, 9))])
def test_gather_gate_on_leading_or_all_bits(nbits, bits):
    # target axes already leading: the kernel's reshape is a view of the input
    rng = generator(41, "gather-edge", nbits)
    matrix = haar_unitary(1 << len(bits), rng)
    amps = random_amps(nbits, rng)
    ref = gather_reference(amps, nbits, bits, matrix)
    kernels.apply_matrix_inplace(amps, nbits, bits, matrix)
    assert np.array_equal(amps, ref)


@pytest.mark.parametrize("nbits", range(2, 17))
def test_query_matches_index_table_at_every_width(nbits):
    rng = generator(41, "query", nbits)
    amps = random_amps(nbits, rng)
    for n in range(1, nbits // 2 + 1):
        fvals = rng.integers(0, 1 << n, size=1 << n)
        out = kernels.apply_query(amps, nbits, n, fvals)
        assert np.array_equal(out, query_reference(amps, nbits, n, fvals))


@pytest.mark.parametrize("nbits", range(1, 17))
def test_readout_matches_bincount_for_every_region_size(nbits):
    rng = generator(41, "readout", nbits)
    amps = random_amps(nbits, rng)
    for k in range(nbits + 1):
        bits = pick_bits(nbits, k, rng)
        out = kernels.value_distribution(amps, nbits, bits)
        assert np.array_equal(out, readout_reference(amps, nbits, bits))


# array and view headers live during a call: a (2,)*20 view alone carries
# 40 shape and stride entries
HEADERS = 16 * 1024


def test_kernels_keep_nothing_and_hold_at_most_two_states():
    nbits = 20
    rng = generator(41, "memory", 0)
    amps = random_amps(nbits, rng)
    state = amps.nbytes
    u4 = haar_unitary(16, rng)
    f4 = rng.integers(0, 16, size=16)
    f10 = rng.integers(0, 1 << 10, size=1 << 10)
    calls = [
        ("query", lambda: kernels.apply_query(amps, nbits, 4, f4), 1.1),
        # no work qubits: the 4**n-entry source table is half a state
        ("query, tau=0", lambda: kernels.apply_query(amps, nbits, 10, f10), 2),
        ("gather", lambda: kernels.apply_matrix_inplace(amps, nbits, (19, 16, 5, 0), u4), 2),
        ("readout", lambda: kernels.value_distribution(amps, nbits, (19, 18, 17, 3)), 2),
    ]
    gc.collect()
    tracemalloc.start()
    try:
        for name, call, states in calls:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - start
            assert peak <= states * state + HEADERS, (name, peak / state)
        gc.collect()
        held = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, kernels.__file__)])
        assert sum(s.size for s in held.statistics("filename")) == 0
    finally:
        tracemalloc.stop()
