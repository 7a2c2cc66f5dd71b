"""Amplitude-array kernels.

Everything here works on a flat complex128 array of length 2**nbits and a
set of *index bits* (bit 0 = least significant bit of the flat index).
Callers translate qubit positions to index bits; kernels never see layouts.

Gates are applied in place on a caller-owned buffer.  Permutation gates
(X, CNOT, Toffoli, ...) are dispatched to strided slice rotations, which
avoid the full-size index gathers that dominate at 20+ qubits; small dense
gates use views for 1-2 targets and a gather/scatter for 3-4 targets.

A state with one nonzero amplitude 1 stays one under permutation gates and
the XOR query, so it can be carried as its flat index alone:
`permute_index` and `query_index` step such an index exactly as
`apply_permutation_inplace` and `apply_query` move the amplitude, with the
same bit conventions and no array of length 2**nbits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _axis_index(nbits: int, fixed: dict[int, int]) -> tuple:
    # reshape((2,)*nbits) puts the most significant index bit on axis 0;
    # fixed axes use length-1 slices so the result stays a writable view
    # even when every bit is fixed
    def sel(axis):
        bit = nbits - 1 - axis
        if bit in fixed:
            v = fixed[bit]
            return slice(v, v + 1)
        return slice(None)
    return tuple(sel(axis) for axis in range(nbits))


def bit_slice(amps: np.ndarray, nbits: int, fixed: dict[int, int]) -> np.ndarray:
    """Strided view of the amplitudes whose given index bits are fixed."""
    return amps.reshape((2,) * nbits)[_axis_index(nbits, fixed)]


def as_permutation(matrix: np.ndarray) -> np.ndarray | None:
    """Return P with matrix[P[j], j] = 1 if the matrix is an exact 0/1 permutation."""
    m = matrix
    if not np.all((m == 0) | (m == 1)):
        return None
    if not (np.all(m.sum(axis=0) == 1) and np.all(m.sum(axis=1) == 1)):
        return None
    return np.argmax(m.real, axis=0)


def _cycles(perm: np.ndarray) -> list[list[int]]:
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen:
            continue
        cyc, j = [], start
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = int(perm[j])
        if len(cyc) > 1:
            cycles.append(cyc)
    return cycles


def _pattern(bits: tuple[int, ...], local: int) -> dict[int, int]:
    k = len(bits)
    return {bits[j]: (local >> (k - 1 - j)) & 1 for j in range(k)}


def read_bits(index: int, bits: tuple[int, ...]) -> int:
    """The integer read MSB-first off the given bits of a flat index."""
    value = 0
    for b in bits:
        value = (value << 1) | ((index >> b) & 1)
    return value


def permute_index(index: int, bits: tuple[int, ...], perm: np.ndarray) -> int:
    """Where apply_permutation_inplace moves the amplitude at index."""
    new = int(perm[read_bits(index, bits)])
    for b, v in _pattern(bits, new).items():
        index = (index & ~(1 << b)) | (v << b)
    return index


def apply_permutation_inplace(amps: np.ndarray, nbits: int, bits: tuple[int, ...],
                              perm: np.ndarray) -> None:
    """Relabel target-bit patterns: new[perm[l]] = old[l], slicewise."""
    for cyc in _cycles(perm):
        # new[c1] = old[c0], new[c2] = old[c1], ...: shift backwards with one temp
        views = [bit_slice(amps, nbits, _pattern(bits, c)) for c in cyc]
        tmp = views[-1].copy()
        for j in range(len(cyc) - 1, 0, -1):
            views[j][...] = views[j - 1]
        views[0][...] = tmp


def _apply_dense_1q_inplace(amps, nbits, bit, u):
    v0 = bit_slice(amps, nbits, {bit: 0})
    v1 = bit_slice(amps, nbits, {bit: 1})
    t0 = v0.copy()
    v0 *= u[0, 0]
    v0 += u[0, 1] * v1
    v1 *= u[1, 1]
    v1 += u[1, 0] * t0


def _apply_dense_2q_inplace(amps, nbits, bits, u):
    views = [bit_slice(amps, nbits, _pattern(bits, l)) for l in range(4)]
    olds = [views[0].copy(), views[1].copy(), views[2].copy(), views[3]]
    for row in range(4):
        acc = u[row, 0] * olds[0]
        acc += u[row, 1] * olds[1]
        acc += u[row, 2] * olds[2]
        acc += u[row, 3] * olds[3]
        views[row][...] = acc


@lru_cache(maxsize=128)
def _gather_indices(nbits: int, bits: tuple[int, ...]) -> np.ndarray:
    """(2**k, 2**(nbits-k)) index table: row l = flat indices with target bits = l."""
    k = len(bits)
    rest = [b for b in range(nbits) if b not in bits]
    base = np.zeros(1 << len(rest), dtype=np.int64)
    r = np.arange(1 << len(rest), dtype=np.int64)
    for i, b in enumerate(rest):
        base |= ((r >> i) & 1) << b
    offs = np.zeros(1 << k, dtype=np.int64)
    for l in range(1 << k):
        o = 0
        for j in range(k):
            if (l >> (k - 1 - j)) & 1:
                o |= 1 << bits[j]
        offs[l] = o
    out = offs[:, None] | base[None, :]
    out.flags.writeable = False
    return out

def apply_matrix_inplace(amps: np.ndarray, nbits: int, bits: tuple[int, ...],
                         matrix: np.ndarray) -> None:
    """Apply a 2**k x 2**k unitary to the given k index bits, in place.

    bits[0] is the most significant bit of the gate's local basis, matching
    the composite-state encoding |e(g_0), e(g_1), ...>.
    """
    perm = as_permutation(matrix)
    if perm is not None:
        apply_permutation_inplace(amps, nbits, bits, perm)
        return
    k = len(bits)
    if k == 1:
        _apply_dense_1q_inplace(amps, nbits, bits[0], matrix)
    elif k == 2:
        _apply_dense_2q_inplace(amps, nbits, bits, matrix)
    else:
        gat = _gather_indices(nbits, bits)
        amps[gat] = matrix @ amps[gat]


@lru_cache(maxsize=32)
def _flat_index(nbits: int) -> np.ndarray:
    idx = np.arange(1 << nbits, dtype=np.int64)
    idx.flags.writeable = False
    return idx


def apply_query(amps: np.ndarray, nbits: int, n: int, fvals: np.ndarray) -> np.ndarray:
    """XOR-query transform; returns a fresh array.

    Convention: address word in index bits 0..n-1, answer half in bits
    n..2n-1.  Amplitude at (w, b, a) comes from (w, b ^ f(a), a).
    """
    idx = _flat_index(nbits)
    pattern = (fvals.astype(np.int64) << n)[idx & ((1 << n) - 1)]
    return amps[idx ^ pattern]


def query_index(index: int, n: int, fvals: np.ndarray) -> int:
    """Where apply_query moves the amplitude at index."""
    return index ^ (int(fvals[index & ((1 << n) - 1)]) << n)


def address_masses(amps: np.ndarray, n: int) -> np.ndarray:
    """Squared-magnitude mass per address word (length 2**n), address in low bits."""
    p = amps.real ** 2 + amps.imag ** 2
    return p.reshape(-1, 1 << n).sum(axis=0)


@lru_cache(maxsize=64)
def _extracted_values(nbits: int, bits: tuple[int, ...]) -> np.ndarray:
    """Per flat index, the integer read MSB-first from the given bits."""
    idx = _flat_index(nbits)
    k = len(bits)
    vals = np.zeros(1 << nbits, dtype=np.int64)
    for j, b in enumerate(bits):
        vals |= ((idx >> b) & 1) << (k - 1 - j)
    vals.flags.writeable = False
    return vals


def value_distribution(amps: np.ndarray, nbits: int, bits: tuple[int, ...]) -> np.ndarray:
    """Probability of each value read off the given bits (length 2**k)."""
    p = amps.real ** 2 + amps.imag ** 2
    return np.bincount(_extracted_values(nbits, bits), weights=p, minlength=1 << len(bits))
