"""State-vector core: registers, gates, the XOR query transform, and the
query-mass quantities the inequality suites are built on.

Register/encoding conventions (fixed, relied on by the file formats):

* A layout has tau working qubits (positions 0..tau-1), then the n-qubit
  query address half (positions tau..tau+n-1), then the n-qubit answer
  half (positions tau+n..tau+2n-1).
* Amplitudes live in one flat array of length 2**(tau+2n).  The address
  word occupies the n lowest index bits, the answer half the next n bits,
  the working register the top bits.  Within every register the word is
  read most-significant-bit first, matching the BitWord encoding.
* A gate's matrix is written in the basis |e(g_0), e(g_1), ...> of its
  target list, first target most significant.

States are values: every operation returns a fresh vector and never
mutates its inputs.  A basic state with amplitude 1 may be held in the
index form, its flat index alone (`StateVector.basic`).  Only this module
reads a state's form: `apply_round` keeps the index through queries and 0/1
permutation gates, and masses, distances, readouts, samples and dumps of
index-form states are read off the index, all with the dense path's bits.
A state's form depends only on the gates it went through, so the pairs the
analysis compares share a form.  The total qubit count is capped (default
24, about 16M amplitudes); QQLAB_QUBIT_CAP overrides.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .errors import (CapExceededError, DuplicateTargetError, InputError,
                     LayoutMismatchError, NonUnitaryError, NotNormalizedError,
                     TargetOutOfRangeError, WidthMismatchError)
from .oracles import BitWord, OracleTable
from .rng import as_generator

DEFAULT_QUBIT_CAP = 24
UNITARITY_TOL = 1e-9
MAX_GATE_TARGETS = 4


def qubit_cap() -> int:
    raw = os.environ.get("QQLAB_QUBIT_CAP")
    if raw is None:
        return DEFAULT_QUBIT_CAP
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"QQLAB_QUBIT_CAP must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class QubitLayout:
    """tau working qubits plus a 2n-qubit query register."""

    work_count: int
    query_width: int

    def __post_init__(self):
        if self.query_width < 1:
            raise WidthMismatchError("query width must be >= 1")
        if self.work_count < 0:
            raise WidthMismatchError("working qubit count must be >= 0")
        cap = qubit_cap()
        if self.total > cap:
            raise CapExceededError(
                f"layout needs {self.total} qubits, cap is {cap} "
                "(set QQLAB_QUBIT_CAP to override)")

    @property
    def total(self) -> int:
        return self.work_count + 2 * self.query_width

    @property
    def dim(self) -> int:
        return 1 << self.total

    def index_bit(self, position: int) -> int:
        """Flat-index bit occupied by a qubit position."""
        tau, n = self.work_count, self.query_width
        if not 0 <= position < self.total:
            raise TargetOutOfRangeError(f"position {position} outside 0..{self.total - 1}")
        if position < tau:
            return 2 * n + (tau - 1 - position)
        if position < tau + n:
            return n - 1 - (position - tau)
        return 2 * n - 1 - (position - tau - n)

    def index_bits(self, positions) -> tuple[int, ...]:
        return tuple(self.index_bit(p) for p in positions)

    @property
    def work_positions(self) -> tuple[int, ...]:
        return tuple(range(self.work_count))

    @property
    def address_positions(self) -> tuple[int, ...]:
        return tuple(range(self.work_count, self.work_count + self.query_width))

    @property
    def answer_positions(self) -> tuple[int, ...]:
        return tuple(range(self.work_count + self.query_width, self.total))


@dataclass(frozen=True)
class BasisAssignment:
    """A 0/1 value for every qubit position."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise LayoutMismatchError("assignment bits must be 0 or 1")

    def address_word(self, layout: QubitLayout) -> BitWord:
        if len(self.bits) != layout.total:
            raise LayoutMismatchError("assignment does not cover the layout")
        return BitWord.from_bits(self.bits[p] for p in layout.address_positions)

    def word_at(self, positions) -> BitWord:
        return BitWord.from_bits(self.bits[p] for p in positions)


class StateVector:
    """Complex amplitudes over the basic states of a layout.

    Computation states are unit norm; difference vectors are allowed to
    carry any norm (query masses remain meaningful on them).

    A basic state with amplitude 1 can be held as its flat `index` alone
    (`StateVector.basic`); its read-only `amplitudes` are then built on
    first access and kept.  A state given by its amplitudes has index None;
    the constructor copies them, so the caller's array is left as it was.
    Treat both attributes as read-only.
    """

    __slots__ = ("layout", "index", "_amplitudes")

    def __init__(self, layout: QubitLayout, amplitudes):
        a = np.array(amplitudes, dtype=np.complex128)
        if a.shape != (layout.dim,):
            raise LayoutMismatchError(f"expected {layout.dim} amplitudes, got {a.shape}")
        a.flags.writeable = False
        self.layout, self.index, self._amplitudes = layout, None, a

    @classmethod
    def basic(cls, layout: QubitLayout, index: int) -> "StateVector":
        """The basic state at a flat index, amplitude 1, with no array."""
        if not 0 <= index < layout.dim:
            raise LayoutMismatchError(f"index {index} outside 0..{layout.dim - 1}")
        return cls._of(layout, index, None)

    @classmethod
    def _of(cls, layout: QubitLayout, index, amplitudes) -> "StateVector":
        """No check, no copy: an index in range or a read-only fresh buffer."""
        state = cls.__new__(cls)
        state.layout, state.index, state._amplitudes = layout, index, amplitudes
        return state

    @property
    def amplitudes(self) -> np.ndarray:
        if self._amplitudes is None:
            self._amplitudes = _one_hot(self.layout.dim, self.index, np.complex128)
            self._amplitudes.flags.writeable = False
        return self._amplitudes

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _one_hot(size: int, index: int, dtype) -> np.ndarray:
    a = np.zeros(size, dtype=dtype)
    a[index] = 1.0
    return a


@dataclass(frozen=True)
class LocalUnitary:
    """A small unitary acting on an ordered list of qubit positions."""

    targets: tuple[int, ...]
    matrix: np.ndarray = field(compare=False)

    def __init__(self, targets, matrix):
        targets = tuple(int(t) for t in targets)
        if len(set(targets)) != len(targets):
            raise DuplicateTargetError(f"duplicate gate targets {targets}")
        if not targets:
            raise TargetOutOfRangeError("gate needs at least one target")
        if len(targets) > MAX_GATE_TARGETS:
            raise TargetOutOfRangeError(
                f"{len(targets)} targets exceeds gate cap {MAX_GATE_TARGETS}")
        m = np.asarray(matrix, dtype=np.complex128)
        d = 1 << len(targets)
        if m.shape != (d, d):
            raise NonUnitaryError(f"matrix shape {m.shape} does not match {len(targets)} targets")
        if not np.isfinite(m).all():
            raise NonUnitaryError("matrix has non-finite entries")
        err = np.abs(m @ m.conj().T - np.eye(d)).max()
        if err > UNITARITY_TOL:
            raise NonUnitaryError(f"matrix fails unitarity by {err:.3e}")
        m.flags.writeable = False
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "matrix", m)

    @cached_property
    def permutation(self) -> np.ndarray | None:
        """P with matrix[P[j], j] = 1 if the matrix is an exact 0/1
        permutation, else None; found once per gate, on first use."""
        return kernels.as_permutation(self.matrix)


def basis_state(layout: QubitLayout, assignment: BasisAssignment) -> StateVector:
    """Unit amplitude on one basic state."""
    if len(assignment.bits) != layout.total:
        raise LayoutMismatchError(
            f"assignment covers {len(assignment.bits)} positions, layout has {layout.total}")
    return StateVector.basic(layout, sum(b << layout.index_bit(p)
                                         for p, b in enumerate(assignment.bits)))


def gate_block(layout: QubitLayout, gates) -> tuple:
    """The gates as a block for `apply_round`: (index bits, gate) pairs,
    translated once; a target outside the layout raises."""
    return tuple((layout.index_bits(u.targets), u) for u in gates)


def apply_round(state: StateVector, f: OracleTable | None, block) -> StateVector:
    """The XOR query under f (none if f is None), then a `gate_block`'s gates.
    An index-form state keeps its form up to the first gate that is not a
    0/1 permutation, which densifies it into one fresh buffer for the rest
    of the block; the input is never written."""
    layout = state.layout
    n, nbits = layout.query_width, layout.total
    if f is not None and f.width != n:
        raise WidthMismatchError(f"oracle width {f.width} != query width {n}")
    index, amps = state.index, None
    if index is None:
        amps = state.amplitudes.copy() if f is None else kernels.apply_query(
            state.amplitudes, nbits, n, f.values)
    elif f is not None:
        index = kernels.query_index(index, n, f.values)
    for bits, u in block:
        if amps is None:
            if u.permutation is not None:
                index = kernels.permute_index(index, bits, u.permutation)
                continue
            amps = _one_hot(layout.dim, index, np.complex128)
        kernels.apply_matrix_inplace(amps, nbits, bits, u.matrix)
    if amps is None:
        return StateVector._of(layout, index, None)
    amps.flags.writeable = False
    return StateVector._of(layout, None, amps)


def apply_local_unitary(state: StateVector, u: LocalUnitary) -> StateVector:
    """The working transform: u on its targets, identity elsewhere."""
    return apply_round(state, None, gate_block(state.layout, (u,)))


def apply_query(state: StateVector, f: OracleTable) -> StateVector:
    """XOR query: |w, a, b> -> |w, a, f(a) xor b>."""
    return apply_round(state, f, ())


def query_masses(vector: StateVector) -> np.ndarray:
    """Mass on every address word at once (length 2**n array)."""
    n = vector.layout.query_width
    if vector.index is not None:  # one-hot on the state's address word
        return (np.arange(1 << n) == (vector.index & ((1 << n) - 1))).astype(np.float64)
    return kernels.address_masses(vector.amplitudes, n)


def query_mass(vector: StateVector, a: BitWord) -> float:
    """Total squared magnitude on basic states whose address half is a.

    Defined for any vector, normalized or not, so it can be evaluated on
    differences of states.
    """
    n = vector.layout.query_width
    if a.width != n:
        raise WidthMismatchError(f"word width {a.width} != query width {n}")
    if vector.index is not None:
        return float(vector.index & ((1 << n) - 1) == a.value)
    block = vector.amplitudes.reshape(-1, 1 << n)[:, a.value]
    return float((block.real ** 2 + block.imag ** 2).sum())


def difference_mass(v1: StateVector, v2: StateVector, a: BitWord) -> float:
    """query_mass of the vector v1 - v2 on a, bit for bit, from a's column alone:
    off the indices of two index-form states, else off their amplitudes."""
    if v1.layout != v2.layout:
        raise LayoutMismatchError("states use different layouts")
    if v1.index is not None and v2.index is not None:
        # the difference is +1 at one index and -1 at the other, or zero
        return 0.0 if v1.index == v2.index else query_mass(v1, a) + query_mass(v2, a)
    if a.width != v1.layout.query_width:
        raise WidthMismatchError(f"word width {a.width} != query width {v1.layout.query_width}")
    column = lambda v: v.amplitudes.reshape(-1, 1 << a.width)[:, a.value]
    d = column(v1) - column(v2)
    return float((d.real ** 2 + d.imag ** 2).sum())


def oracle_distance(state: StateVector, f: OracleTable, g: OracleTable) -> float:
    """Square root of the query mass on the words where f and g differ."""
    n = state.layout.query_width
    if f.width != n or g.width != n:
        raise WidthMismatchError("oracle widths must match the query register")
    mask = f.values != g.values
    if not mask.any():
        return 0.0
    return float(np.sqrt(query_masses(state)[mask].sum()))


def l2_distance(v1: StateVector, v2: StateVector) -> float:
    if v1.layout != v2.layout:
        raise LayoutMismatchError("states use different layouts")
    if v1.index is not None and v2.index is not None:
        return 0.0 if v1.index == v2.index else float(np.sqrt(2.0))
    return float(np.linalg.norm(v1.amplitudes - v2.amplitudes))


def readout_distribution(state: StateVector, positions) -> np.ndarray:
    """Probability of each value read MSB first off the given qubit positions."""
    bits = state.layout.index_bits(positions)
    if state.index is not None:
        return _one_hot(1 << len(bits), kernels.read_bits(state.index, bits), np.float64)
    return kernels.value_distribution(state.amplitudes, state.layout.total, bits)


def observe(state: StateVector, seed) -> BasisAssignment:
    """Sample one basic state under the squared-magnitude distribution.

    Pure sampling: the stored state is never collapsed, so repeated calls
    draw with replacement.  Deterministic given the seed.
    """
    rng = as_generator(seed)
    if state.index is not None:  # a certain outcome, after the dense path's one draw
        rng.random()
        index = state.index
    else:
        p = state.amplitudes.real ** 2 + state.amplitudes.imag ** 2
        total = p.sum()
        if abs(np.sqrt(total) - 1.0) > 1e-6:
            raise NotNormalizedError(f"state norm {np.sqrt(total):.9f} is not 1 within 1e-6")
        cum = np.cumsum(p)
        index = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
        index = min(index, len(p) - 1)
    layout = state.layout
    bits = tuple((index >> layout.index_bit(pos)) & 1 for pos in range(layout.total))
    return BasisAssignment(bits)


# gate builders

_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
_CNOT = np.array([[1, 0, 0, 0],
                  [0, 1, 0, 0],
                  [0, 0, 0, 1],
                  [0, 0, 1, 0]], dtype=np.complex128)


def x_gate(position: int) -> LocalUnitary:
    return LocalUnitary((position,), _X)


def h_gate(position: int) -> LocalUnitary:
    return LocalUnitary((position,), _H)


def cnot_gate(control: int, target: int) -> LocalUnitary:
    return LocalUnitary((control, target), _CNOT)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_gate(targets, rng: np.random.Generator) -> LocalUnitary:
    return LocalUnitary(tuple(targets), haar_unitary(1 << len(targets), rng))


def state_dump(state: StateVector, nonzero_only: bool = True) -> str:
    """Debug dump: one "index re im" line per amplitude, 17 significant digits."""
    if nonzero_only and state.index is not None:
        return f"{state.index} 1 0\n"
    lines = [f"{i} {amp.real:.17g} {amp.imag:.17g}"
             for i, amp in enumerate(state.amplitudes) if amp != 0 or not nonzero_only]
    return "\n".join(lines) + "\n"
