"""The view kernels against index-table references for every path.

The references build full-size int64 index tables, as the kernels once did:
one for each body of the gate's block loop (the row moves of a 0/1
permutation, and the matrix product that applies every other 1-4 target
gate), the XOR query, and the flat-order bincount that the address masses
and the readout must match.  Both gate bodies must agree with the kernels
byte for byte, signed zeros included, at any placement of the target bits
and on states of one block or of several; every gate holds at most two
blocks, and the square sums no more than the largest gate.
"""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest

from qqlab import kernels, qsim
from qqlab.qsim import LocalUnitary, QubitLayout, StateVector, haar_unitary
from qqlab.rng import generator


def index_table(nbits, bits):
    """Row l holds the flat indices whose target bits read l, bits[0] first."""
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
    return offs[:, None] | base[None, :]


def gather_reference(amps, nbits, bits, matrix):
    gat = index_table(nbits, bits)
    out = amps.copy()
    out[gat] = matrix @ amps[gat]
    return out


def permutation_reference(amps, nbits, bits, perm):
    tab = index_table(nbits, bits)
    out = amps.copy()
    out[tab[perm]] = amps[tab]
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


def signed_zero_amps(nbits, rng):
    """Random amplitudes with about a third of the parts set to +0 or -0."""
    amps = random_amps(nbits, rng)
    parts = amps.view(np.float64)
    hit = rng.random(parts.size) < 1 / 3
    parts[hit] = np.where(rng.random(hit.sum()) < 0.5, -0.0, 0.0)
    return amps


def place_bits(placement, k, rng, nbits=None):
    """(nbits, bits) for k targets at 1-16 qubits (or at nbits), in a
    shuffled order."""
    if nbits is None:
        nbits = k if placement == "all" else int(rng.integers(k, 17))
    if placement == "random":
        return nbits, pick_bits(nbits, k, rng)
    start = (int(rng.integers(0, nbits - k + 1)) if placement == "adjacent"
             else nbits - k if placement == "leading" else 0)
    return nbits, tuple(int(b) for b in rng.permutation(range(start, start + k)))


PLACEMENTS = ["random", "adjacent", "leading", "trailing", "all"]


def monomial_unitary(dim, rng):
    """A permutation matrix with unit phases: dense path, many exact zeros."""
    phases = np.exp(2j * np.pi * rng.random(dim))
    return np.eye(dim, dtype=np.complex128)[rng.permutation(dim)] * phases


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_permutation_gate_matches_index_table_byte_for_byte(placement, k):
    rng = generator(41, f"permutation-{placement}", k)
    # the last case spans 8 blocks of 2**GATHER_BLOCK_BITS columns
    blocked = None if placement == "all" else kernels.GATHER_BLOCK_BITS + k + 3
    for nbits in (None, None, None, None, None, None, blocked):
        nbits, bits = place_bits(placement, k, rng, nbits)
        perm = rng.permutation(1 << k)
        matrix = np.eye(1 << k, dtype=np.complex128)[:, perm]
        assert np.array_equal(kernels.as_permutation(matrix), perm)
        amps = signed_zero_amps(nbits, rng)
        ref = permutation_reference(amps, nbits, bits, perm)
        kernels.apply_matrix_inplace(amps, nbits, bits, matrix)
        assert amps.tobytes() == ref.tobytes(), (nbits, bits)


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_gather_gate_matches_index_table_byte_for_byte(placement, k):
    rng = generator(41, f"gather-{placement}", k)
    # the last case spans 8 blocks of 2**GATHER_BLOCK_BITS columns
    blocked = None if placement == "all" else kernels.GATHER_BLOCK_BITS + k + 3
    for j, nbits in enumerate((None, None, None, None, None, None, None, blocked)):
        nbits, bits = place_bits(placement, k, rng, nbits)
        u = (haar_unitary if j % 2 else monomial_unitary)(1 << k, rng)
        assert kernels.as_permutation(u) is None
        amps = signed_zero_amps(nbits, rng)
        ref = gather_reference(amps, nbits, bits, u)
        kernels.apply_matrix_inplace(amps, nbits, bits, u)
        assert amps.tobytes() == ref.tobytes(), (nbits, bits)


def random_support(nbits, bits, m, rng):
    """A support on m random groups (settings of the bits off the targets),
    each with a random nonempty set of target patterns, one group full."""
    k = len(bits)
    rest = [b for b in range(nbits) if b not in bits]
    groups = rng.choice(1 << len(rest), size=m, replace=False)
    base = np.zeros(m, dtype=np.int64)
    for i, b in enumerate(rest):
        base |= ((groups >> i) & 1) << b
    held = rng.random((m, 1 << k)) < rng.random()
    held[np.arange(m), rng.integers(0, 1 << k, size=m)] = True
    held[0] = True
    idx = np.sort((base[:, None] | kernels._offsets(bits)[None, :])[held])
    return idx, rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))


# (N - k, group counts m): no, one and two bits off the targets, then whole
# and partial 4-column tiles around the 2**GATHER_BLOCK_BITS block width
SUPPORT_CASES = [(0, (1,)), (1, (1, 2)), (2, (1, 2, 3, 4)), (4, (*range(1, 10), 16)),
                 (12, (1023, 1024, 1025, 2047, 2048, 2049, 4096))]


@pytest.mark.parametrize("placement", PLACEMENTS)
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_support_gate_matches_the_dense_gate_byte_for_byte(placement, k):
    rng = generator(41, f"support-gate-{placement}", k)
    for rest, counts in SUPPORT_CASES[:1] if placement == "all" else SUPPORT_CASES:
        nbits, bits = place_bits(placement, k, rng, k + rest)
        for j, m in enumerate(counts):
            u = (haar_unitary if j % 2 else monomial_unitary)(1 << k, rng)
            idx, vals = random_support(nbits, bits, m, rng)
            amps = np.zeros(1 << nbits, dtype=np.complex128)
            amps[idx] = vals
            kernels.apply_matrix_inplace(amps, nbits, bits, u)
            got_idx, got_vals = kernels.support_gate(idx, vals, bits, u, nbits)
            assert np.array_equal(got_idx, np.flatnonzero(amps)), (nbits, bits, m)
            assert got_vals.tobytes() == amps[got_idx].tobytes(), (nbits, bits, m)


@pytest.mark.parametrize("kind", ["haar", "monomial", "permutation"])
def test_support_gate_matches_the_dense_gate_on_random_supports(kind):
    # 1-4 targets on 2-18 qubits, 1-600 entries anywhere in the state; a
    # 0/1 permutation steps through the same product as any other gate
    rng = generator(41, f"support-gate-random-{kind}")
    for trial in range(40):
        k = trial % 4 + 1
        nbits = int(rng.integers(max(k, 2), 19))
        bits = pick_bits(nbits, k, rng)
        if kind == "haar":
            u = haar_unitary(1 << k, rng)
        elif kind == "monomial":
            u = monomial_unitary(1 << k, rng)
        else:
            u = np.eye(1 << k, dtype=np.complex128)[:, rng.permutation(1 << k)]
        size = int(rng.integers(1, min(600, 1 << nbits) + 1))
        idx = np.sort(rng.choice(1 << nbits, size=size, replace=False)).astype(np.int64)
        vals = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        amps = np.zeros(1 << nbits, dtype=np.complex128)
        amps[idx] = vals
        kernels.apply_matrix_inplace(amps, nbits, bits, u)
        flips = kernels.flip_table(bits, u)
        assert (flips is None) == (kind != "permutation")
        got_idx, got_vals = kernels.support_gate(idx, vals, bits, u, nbits)
        assert np.array_equal(got_idx, np.flatnonzero(amps)), (nbits, bits, size)
        assert got_vals.tobytes() == amps[got_idx].tobytes(), (nbits, bits, size)


@pytest.mark.parametrize("placement", PLACEMENTS)
def test_flip_tables_step_index_and_support_as_the_permutation_kernel(placement):
    # a one-gate block through apply_round: the index form and a support
    # step by the placed gate's flip table, the dense reference by the
    # gate's matrix
    rng = generator(41, f"flip-table-{placement}")
    for trial in range(24):
        k = trial % 4 + 1
        nbits, bits = place_bits(placement, k, rng)
        lay = QubitLayout(max(nbits - 2, 0), 1)  # every index below 2**nbits
        position = {lay.index_bit(p): p for p in range(lay.total)}
        perm = rng.permutation(1 << k)
        gate = LocalUnitary([position[b] for b in bits], np.eye(1 << k)[:, perm])
        block = qsim.gate_block(lay, [gate])
        index = int(rng.integers(0, 1 << nbits))
        amps = np.zeros(1 << nbits, dtype=np.complex128)
        amps[index] = 1
        kernels.apply_matrix_inplace(amps, nbits, bits, gate.matrix)
        stepped = qsim.apply_round(StateVector.basic(lay, index), None, block)
        assert np.flatnonzero(amps).tolist() == [stepped.index]
        groups = int(rng.integers(1, min(8, 1 << (nbits - k)) + 1))
        idx, vals = random_support(nbits, bits, groups, rng)
        amps = np.zeros(1 << nbits, dtype=np.complex128)
        amps[idx] = vals
        kernels.apply_matrix_inplace(amps, nbits, bits, gate.matrix)
        got_idx, got_vals = qsim.apply_round(
            StateVector._of(lay, None, (idx, vals), None), None, block)._support
        assert np.array_equal(got_idx, np.flatnonzero(amps)), (nbits, bits)
        assert got_vals.tobytes() == amps[got_idx].tobytes(), (nbits, bits)


@pytest.mark.parametrize("rows, perm", [
    ([[0, 1], [1, 0]], [1, 0]),
    ([[0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0]], [1, 3, 0, 2]),
    ([[1, 0], [1, 0]], None),                 # a repeated column, an empty one
    ([[1, 0], [0, -1]], None),                # a nonzero other than 1
    ([[1, 0], [0, 1j]], None),
    ([[1, 1e-300], [0, 1]], None),            # a second nonzero in a row
    ([[1, 0], [0, 0]], None),                 # an empty row
    ([[0.5, 0.5], [0.5, -0.5]], None),        # stops at the first entry
])
def test_as_permutation_takes_only_exact_permutation_matrices(rows, perm):
    got = kernels.as_permutation(np.array(rows, dtype=np.complex128))
    assert (got is None) == (perm is None)
    if perm is not None:
        assert got.tolist() == perm
        assert all(rows[got[j]][j] == 1 for j in range(len(perm)))


def test_read_bits_of_no_bits_is_zero_of_the_index_shape():
    values = kernels.read_bits(np.arange(6, dtype=np.int64).reshape(2, 3), ())
    assert values.dtype == np.int64 and np.array_equal(values, np.zeros((2, 3)))


@pytest.mark.parametrize("k", range(1, 5))
def test_offsets_match_the_pattern_matrix_product(k):
    # row p of the matrix: p's bits MSB-first; times each target bit's weight
    for bits in itertools.permutations(range(6), k):
        ref = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1) & 1) @ (1 << np.array(bits))
        got = kernels._offsets(bits)
        assert got.dtype == np.int64 and np.array_equal(got, ref), bits


@pytest.mark.parametrize("trial", range(40))
def test_gather_gate_matches_index_table(trial):
    rng = generator(41, "gather", trial)
    nbits = int(rng.integers(3, 17))
    k = int(rng.integers(1, min(4, nbits) + 1))
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


@pytest.mark.parametrize("nbits", [*range(2, 17), 18, 20])
def test_query_matches_index_table_at_every_width(nbits):
    # the kernel's gather is unchecked (mode="wrap"), so a source column out
    # of range would wrap silently: every width to 16 bits, then n = 1, 4
    # and the largest n past it
    rng = generator(41, "query", nbits)
    amps = random_amps(nbits, rng)
    widths = range(1, nbits // 2 + 1) if nbits <= 16 else (1, 4, nbits // 2)
    for n in widths:
        fvals = rng.integers(0, 1 << n, size=1 << n)
        out = kernels.apply_query(amps, nbits, n, fvals)
        assert np.array_equal(out, query_reference(amps, nbits, n, fvals))


@pytest.mark.parametrize("nbits", [*range(1, 17), 18, 20])
def test_readout_matches_bincount_for_every_region_size(nbits):
    rng = generator(41, "readout", nbits)
    amps = random_amps(nbits, rng)
    # past 16 bits, on 8 or 32 blocks: a few region sizes (16 bits: one row
    # a block), and the top bits in order, whose moved blocks reshape
    # column-major
    sizes = range(nbits + 1) if nbits <= 16 else (0, 1, 3, 4, 16)
    regions = [pick_bits(nbits, k, rng) for k in sizes]
    if nbits > 16:
        regions.append(tuple(range(nbits - 1, nbits - 4, -1)))
    for bits in regions:
        out = kernels.value_distribution(amps, nbits, bits)
        assert np.array_equal(out, readout_reference(amps, nbits, bits))


@pytest.mark.parametrize("nbits", [1, 8, 15, 16, 18, 20])
def test_address_masses_match_bincount_for_every_width(nbits):
    # the address word is the n low bits: the readout of bits n-1 ... 0
    amps = random_amps(nbits, generator(41, "masses", nbits))
    for n in range(nbits + 1):
        out = kernels.address_masses(amps, n)
        assert np.array_equal(out, readout_reference(amps, nbits, tuple(range(n - 1, -1, -1))))


# array and view headers live during a call: a (2,)*20 view alone carries
# 40 shape and stride entries
HEADERS = 16 * 1024


def test_kernels_keep_nothing_and_hold_at_most_two_states():
    nbits = 20
    amps = random_amps(nbits, generator(41, "memory", 0))
    state = amps.nbytes
    x, cnot, toffoli = (np.eye(d, dtype=np.complex128)[[*range(d - 2), d - 1, d - 2]]
                        for d in (2, 4, 8))
    # the warm-up's permutations: X, a SWAP and a Fredkin
    warm_gates = [np.eye(len(p), dtype=np.complex128)[p]
                  for p in ([1, 0], [0, 2, 1, 3], [0, 1, 2, 3, 4, 6, 5, 7])]

    def blocks(k):  # two temporaries of one (2**k, 2**GATHER_BLOCK_BITS) block each
        return 2 * (1 << k) * 2 ** kernels.GATHER_BLOCK_BITS / (1 << nbits)

    def calls(rng, gates, bit):
        # one call of each kernel: rng draws the query tables and the dense
        # matrices, gates are the 1-, 2- and 3-bit permutations, and target
        # index bit b sits at bit(b)
        u1, u2, u4 = (haar_unitary(d, rng) for d in (2, 4, 16))
        f4 = rng.integers(0, 16, size=16)
        f10 = rng.integers(0, 1 << 10, size=1 << 10)

        def gate(bits, matrix):
            return lambda: kernels.apply_matrix_inplace(amps, nbits, tuple(map(bit, bits)), matrix)
        return [
            ("query", lambda: kernels.apply_query(amps, nbits, 4, f4), 1.1),
            # no work qubits: the 4**n-entry source table is half a state
            ("query, tau=0", lambda: kernels.apply_query(amps, nbits, 10, f10), 2),
            ("X on bit 0", gate((0,), gates[0]), blocks(1)),
            ("CNOT", gate((19, 2), gates[1]), blocks(2)),
            ("Toffoli", gate((10, 0, 19), gates[2]), blocks(3)),
            ("dense 1q", gate((7,), u1), blocks(1)),
            ("dense 2q", gate((19, 2), u2), blocks(2)),
            ("gather", gate((19, 16, 5, 0), u4), blocks(4)),
            # the squares of one block of the largest gate's size, at most
            # what that gate holds
            ("masses", lambda: kernels.address_masses(amps, bit(4)), blocks(4)),
            ("readout", lambda: kernels.value_distribution(
                amps, nbits, tuple(map(bit, (19, 18, 17, 3)))), blocks(4)),
        ]

    # numpy keeps small freed buffers for reuse, and the first calls leave
    # some allocated in kernel frames.  A warm-up round fills those caches
    # before tracing and shares no argument with the traced round (its own
    # query tables, dense matrices and permutations, every target bit and
    # the address width mirrored), so a kernel that kept anything keyed on
    # its arguments is still caught below.  The traced round's arguments
    # are drawn first, outside tracing.
    traced = calls(generator(41, "memory", 1), (x, cnot, toffoli), lambda b: b)
    for _, call, _ in calls(generator(41, "memory-warm-up", 0), warm_gates,
                            lambda b: nbits - 1 - b):
        call()
    gc.collect()
    tracemalloc.start()
    try:
        for name, call, states in traced:
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


def test_support_gate_holds_nothing_state_sized():
    # 20 qubits, a support of 64 groups: its step holds block- and
    # support-sized arrays, under 1/64 of the 16 MiB of amplitudes
    nbits = 20
    rng = generator(41, "support-memory", 0)
    for bits in ((7,), (19, 2), (19, 16, 5), (19, 16, 5, 0)):
        u = haar_unitary(1 << len(bits), rng)
        support = random_support(nbits, bits, 64, rng)
        tracemalloc.start()
        try:
            kernels.support_gate(*support, bits, u, nbits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (16 << nbits) / 64, peak
