"""Amplitude-array kernels.

Everything here works on a flat complex128 array of length 2**nbits and a
set of *index bits* (bit 0 = least significant bit of the flat index).
Callers translate qubit positions to index bits; kernels never see layouts.

Gates are applied in place on a caller-owned buffer, all addressed
through one view: the (2,)*nbits reshape with the target axes moved to
the front, bits[0] first, indexed by local pattern.  Every gate of 1-4
targets runs one loop over blocks of that view, at most
2**GATHER_BLOCK_BITS columns each: a 0/1 permutation moves the block's
pattern rows that it moves, any other gate is one matrix product.  The
square sums (`address_masses`: the n low bits; `value_distribution`)
walk it with the read bits last, in blocks of at most
2**(GATHER_BLOCK_BITS + 4) amplitudes or one row of 2**k, adding each
value's squares in flat index order as a `read_bits` bincount does.
Only `apply_query` holds more than two blocks; no kernel keeps anything.

A state with one nonzero amplitude 1 (the index form of
`qsim.StateVector`) or few (its support: ascending flat indices and their
amplitudes) need not be held dense.  A 0/1 permutation gate moves either
by its `flip_table`, one flat-index XOR per target pattern, exactly as
`apply_matrix_inplace` moves the amplitudes; `support_query` and
`support_gate` step a support as `apply_query` and `apply_matrix_inplace`
step the full array, a dense gate through the same product, so every
nonzero amplitude gets the same bits.

Each form reads target bits by one rule: an index or a support's indices
by `read_bits`, a dense array through `_target_view`.  `_offsets` only
writes patterns (flip tables, and a dense gate's new support indices).
"""

from __future__ import annotations

import itertools
from array import array

import numpy as np

# Blocks of 2**GATHER_BLOCK_BITS columns: a state of up to k + 11 bits is
# one.  A column's zgemm bits can depend on the block width: on OpenBLAS
# 0.3.31, products match one product over all columns only for a width
# that is a multiple of 4.  Each block is 2**11 columns or the whole
# state, so the blocking keeps the bits; `support_gate` pads its gathered
# columns to whole 4-column tiles for the same reason, or takes the whole
# state's width where that is below 4 columns.
GATHER_BLOCK_BITS = 11


def _target_view(amps: np.ndarray, nbits: int, bits: tuple[int, ...]) -> np.ndarray:
    # reshape((2,)*nbits) puts the most significant index bit on axis 0;
    # view[l_0, ..., l_{k-1}, ...] holds the amplitudes whose targets read
    # l_0 ... l_{k-1}, a writable view even when every bit is a target
    axes = [nbits - 1 - b for b in bits]
    return amps.reshape((2,) * nbits).transpose(axes + [a for a in range(nbits) if a not in axes])


def as_permutation(matrix: np.ndarray) -> np.ndarray | None:
    """Return P with matrix[P[j], j] = 1 if the matrix is an exact 0/1 permutation."""
    # every permutation matrix starts with 0 or 1: most dense gates stop here
    if matrix[0, 0] != 0 and matrix[0, 0] != 1:
        return None
    # one pass over the rows: each holds one nonzero, a 1, in a column no other row holds
    cols = [row.index(1) if 1 in row and row.count(0) == len(row) - 1 else -1
            for row in matrix.tolist()]
    if -1 in cols or len(set(cols)) < len(cols):
        return None
    return np.argsort(cols)  # P[j]: the row whose 1 is in column j


def read_bits(index, bits: tuple[int, ...]):
    """The integer read MSB-first off the given bits of a flat index (an
    int, or elementwise an int64 array; zeros of its shape for no bits)."""
    value = 0 if bits else index & 0
    for b in bits:
        value = (value << 1) | ((index >> b) & 1)
    return value


def _offsets(bits: tuple[int, ...]) -> np.ndarray:
    """offsets[p]: target pattern p written MSB-first onto the given bits of
    a flat index that is 0 elsewhere (int64, length 2**k)."""
    # one choice of 0 or the bit's weight per target bit, bits[0] varying slowest
    return np.array([sum(c) for c in itertools.product(*((0, 1 << b) for b in bits))], np.int64)


def flip_table(bits: tuple[int, ...], matrix: np.ndarray) -> tuple[int, ...] | None:
    """For a 0/1 permutation matrix P on the bits, flips[p]: the flat-index
    XOR that moves target pattern p to where apply_matrix_inplace sends
    it, pattern P[p].  None for any other matrix."""
    perm = as_permutation(matrix)
    if perm is None:
        return None
    offsets = _offsets(bits)
    return tuple((offsets ^ offsets[perm]).tolist())


def affine_tables(nbits: int, placed) -> tuple[array, ...] | None:
    """For two or more gates placed as (bits, gate, flips) triples, each a
    0/1 permutation whose flip table is affine in its pattern, fl[p] ==
    fl[p & (p-1)] ^ fl[p & -p] ^ fl[0] for every p, their composed map of a
    flat index of nbits bits: one table per 8 index bits, whose entries at
    the index's bytes XOR to its image.  None for any other block."""
    if len(placed) < 2 or any(fl is None or any(fl[p] != fl[p & (p - 1)] ^ fl[p & -p] ^ fl[0]
                                                for p in range(len(fl))) for _, _, fl in placed):
        return None
    images = []  # of 0, the map's constant (table 0 holds it), then of each index bit alone
    for index in [0] + [1 << b for b in range(nbits)]:
        for bits, _, fl in placed:
            index ^= fl[read_bits(index, bits)]
        images.append(index)
    tables = []
    for low in range(0, nbits, 8):
        table = [0 if low else images[0]]
        for image in images[low + 1:low + 9]:
            table += [v ^ image ^ images[0] for v in table]
        tables.append(array("q", table))
    return tuple(tables)


def apply_matrix_inplace(amps: np.ndarray, nbits: int, bits: tuple[int, ...],
                         matrix: np.ndarray) -> None:
    """Apply a 2**k x 2**k unitary to the given k index bits, in place, one
    block of columns at a time: a 0/1 permutation P by moving each pattern
    row l that P moves to row P[l], any other matrix by the block's
    product with it.

    bits[0] is the most significant bit of the gate's local basis, matching
    the composite-state encoding |e(g_0), e(g_1), ...>.
    """
    k = len(bits)
    view = _target_view(amps, nbits, bits)
    perm = as_permutation(matrix)
    if perm is not None:
        # row l moves to row P[l], one index array per target axis; from lists,
        # as np.unravel_index leaves a small buffer in numpy's cache after a call
        moved = [l for l in range(1 << k) if perm[l] != l]
        axis = [[(l >> (k - 1 - j)) & 1 for l in range(1 << k)] for j in range(k)]
        src = tuple(np.array([a[l] for l in moved], dtype=np.intp) for a in axis)
        dst = tuple(np.array([a[perm[l]] for l in moved], dtype=np.intp) for a in axis)
    # rows are local patterns, columns the other bits in flat order
    for lead in itertools.product((0, 1), repeat=max(0, nbits - k - GATHER_BLOCK_BITS)):
        block = view[(slice(None),) * k + lead]
        if perm is None:
            block[...] = (matrix @ block.reshape(1 << k, -1)).reshape(block.shape)
        else:
            block[dst] = block[src]


def apply_query(amps: np.ndarray, nbits: int, n: int, fvals: np.ndarray) -> np.ndarray:
    """XOR-query transform; returns a fresh array.

    Convention: address word in index bits 0..n-1, answer half in bits
    n..2n-1.  Amplitude at (w, b, a) comes from (w, b ^ f(a), a), gathered
    through one 4**n-entry table of source columns without a bounds check:
    fvals must be in range(2**n), as an `OracleTable`'s are (out of range wraps).
    """
    words = np.arange(1 << n, dtype=np.int64)
    # src[b, a]: where the low 2n bits (b, a) of a destination are read from
    src = words[:, None] ^ fvals.astype(np.int64)[None, :]
    src <<= n
    src |= words[None, :]
    return np.take(amps.reshape(-1, 1 << 2 * n), src.ravel(), axis=1, mode="wrap").reshape(-1)


def _sorted(idx: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = np.argsort(idx, kind="stable")
    return idx[order], vals[order]


def support_query(idx: np.ndarray, vals: np.ndarray, n: int,
                  fvals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """apply_query on a support (ascending int64 flat indices, their
    amplitudes); returns fresh arrays, indices ascending."""
    answers = np.asarray(fvals, dtype=np.int64)[idx & ((1 << n) - 1)]
    return _sorted(idx ^ (answers << n), vals)


def support_gate(idx: np.ndarray, vals: np.ndarray, bits: tuple[int, ...],
                 matrix: np.ndarray, nbits: int, flips=None) -> tuple[np.ndarray, np.ndarray]:
    """apply_matrix_inplace on a support (ascending int64 flat indices,
    their nonzero amplitudes) of a state of nbits bits, for a gate on 1-4
    of the bits; returns fresh arrays in the same form.

    Each index's target pattern is read by `read_bits`.  A 0/1 permutation,
    given by its `flip_table`, XORs each index with the flips of its
    pattern.  For a dense gate the indices are grouped by their bits off
    the targets, and each group is scattered into one column of a
    (2**k, groups) block, absent entries 0; the block's product with the
    matrix then computes each amplitude from the same operands in the same
    order as the dense kernel's product on the full array.  An amplitude
    that comes out exactly 0 is dropped; the full array holds it as +0.0,
    as the product wrote every zero on OpenBLAS 0.3.31.
    """
    pattern = read_bits(idx, bits)
    if flips is not None:
        return _sorted(idx ^ np.array(flips, dtype=np.int64)[pattern], vals)
    k, offsets = len(bits), _offsets(bits)
    rest = idx & ~int(offsets[-1])  # offsets[-1]: every target bit set
    ordered = np.sort(rest)
    groups = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    m = len(groups)
    # whole 4-column tiles, or the dense product's width (GATHER_BLOCK_BITS)
    block = np.zeros((1 << k, min(-(-m // 4) * 4, 1 << (nbits - k))), dtype=np.complex128)
    block[pattern, np.searchsorted(groups, rest)] = vals
    block = matrix @ block
    new = (offsets[:, None] | groups).ravel()
    out = block[:, :m].ravel()
    keep = out != 0
    return _sorted(new[keep], out[keep])


def _square_sums(view: np.ndarray, k: int) -> np.ndarray:
    # per block: the squares, copied to C order, the earlier sums added to
    # row 0, then an axis-0 sum; numpy would sum pairwise a column-major
    # block (a moved view's can be one) or one column (no read bits): a cumsum
    fixed = max(0, view.ndim - max(k, GATHER_BLOCK_BITS + 4))
    sums = np.zeros(1 << k)
    for lead in itertools.product((0, 1), repeat=fixed):
        rows = np.square(view[lead].real)  # in the block's memory order
        rows += np.square(view[lead].imag)
        rows = np.ascontiguousarray(rows).reshape(-1, 1 << k)
        rows[0] += sums
        sums = rows.sum(axis=0) if k else np.cumsum(rows, axis=0, out=rows)[-1].copy()
    return sums


def address_masses(amps: np.ndarray, n: int) -> np.ndarray:
    """Squared-magnitude mass per address word (the n low bits, length 2**n)."""
    return _square_sums(amps.reshape((2,) * (amps.size.bit_length() - 1)), n)


def value_distribution(amps: np.ndarray, nbits: int, bits: tuple[int, ...]) -> np.ndarray:
    """Probability of each value read off the given bits (length 2**k)."""
    k = len(bits)
    return _square_sums(np.moveaxis(_target_view(amps, nbits, bits), range(k), range(-k, 0)), k)
