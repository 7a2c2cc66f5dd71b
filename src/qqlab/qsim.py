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

States are values: every operation returns a fresh vector and never mutates
its inputs.  A state is held in one of three forms: dense, its 2**N
amplitudes; the index form, the flat index of a basic state with amplitude 1
(`StateVector.basic`); or its support, the ascending flat indices of its
nonzero amplitudes and those amplitudes.  Only this module reads a state's
form, and `apply_round` alone chooses it: a basic input keeps its index
through queries and 0/1 permutation gates (a block of 2+ gates with affine
flip tables by one composed map), and a support is kept while it stays small.
Readers read an index-form state off its index (one bin of 1.0, one True; 0.0
or sqrt(2) apart), any other state not held dense through one bincount over its
support (samples, dumps and mixed-form differences see an index as a support of
one), and give the dense path's bits, so compared states may be in different
forms.  Every per-word mass, norm and distance follows one rule: a word's mass
is its squares added in flat index order (`query_masses`), and a norm or
distance is the root of the summed masses, which no BLAS thread count moves.
Chain states equal the dense path's byte for byte: they start from a basis
state, and no dense gate's product wrote -0.0 (OpenBLAS 0.3.31).
`occupied_words` says which address words carry a nonzero amplitude: a round
under g from a state that carries no word where f and g differ equals the
round under f in that same sense, so a caller may reuse it.
The total qubit count is capped (default 24, about 16M amplitudes);
QQLAB_QUBIT_CAP overrides it with any integer of at least 2.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import (CapExceededError, DuplicateTargetError, InputError,
                     LayoutMismatchError, NonUnitaryError, NotNormalizedError,
                     TargetOutOfRangeError, WidthMismatchError)
from .oracles import BitWord, OracleTable, diff_set
from .rng import as_generator

DEFAULT_QUBIT_CAP = 24
UNITARITY_TOL = 1e-9
MAX_GATE_TARGETS = 4
# a support goes dense before a k-target gate that could grow it past
# 1/SUPPORT_SHARE of the amplitudes, len(support) * 2**k * SUPPORT_SHARE
# > 2**N, so a small layout, where the dense kernels are as fast, goes
# dense within a few gates; a support meets a block with a 3-4 target
# dense gate with one test, at its start, on all its dense gates' k together
SUPPORT_SHARE = 16


def qubit_cap() -> int:
    raw = os.environ.get("QQLAB_QUBIT_CAP")
    if raw is None:
        return DEFAULT_QUBIT_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    # the smallest layout, n = 1 with no working qubits, has 2 qubits
    if cap < 2:
        raise InputError(f"QQLAB_QUBIT_CAP must be an integer of at least 2, got {raw!r}")
    return cap


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
        if not 0 <= operator.index(position) < self.total:
            raise TargetOutOfRangeError(f"position {position} outside 0..{self.total - 1}")
        if position < tau:
            return 2 * n + (tau - 1 - position)
        if position < tau + n:
            return n - 1 - (position - tau)
        return 2 * n - 1 - (position - tau - n)

    def index_bits(self, positions) -> tuple[int, ...]:
        bits = tuple(self.index_bit(p) for p in positions)
        if len(set(bits)) < len(bits):
            raise DuplicateTargetError(f"repeated qubit position (index bits {bits})")
        return bits

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

    def word_at(self, positions) -> BitWord:
        return BitWord.from_bits(self.bits[p] for p in positions)


class StateVector:
    """Complex amplitudes over the basic states of a layout.

    Computation states are unit norm; difference vectors are allowed to
    carry any norm (query masses remain meaningful on them).

    A basic state with amplitude 1 can be held as its flat `index` alone
    (`StateVector.basic`), and `apply_round` may hold a state as its
    support; the read-only `amplitudes` of either are built on first access
    and kept.  Only the index form has an index; a state given by its
    amplitudes has index None, and the constructor copies them, so the
    caller's array is left as it was.  Treat both attributes as read-only.
    """

    __slots__ = ("layout", "index", "_support", "_amplitudes")

    def __init__(self, layout: QubitLayout, amplitudes):
        a = np.array(amplitudes, dtype=np.complex128)
        if a.shape != (layout.dim,):
            raise LayoutMismatchError(f"expected {layout.dim} amplitudes, got {a.shape}")
        a.flags.writeable = False
        self.layout, self.index, self._support, self._amplitudes = layout, None, None, a

    @classmethod
    def basic(cls, layout: QubitLayout, index: int) -> "StateVector":
        """The basic state at a flat index, amplitude 1, with no array."""
        if not 0 <= index < layout.dim:
            raise LayoutMismatchError(f"index {index} outside 0..{layout.dim - 1}")
        return cls._of(layout, index, None, None)

    @classmethod
    def _of(cls, layout: QubitLayout, index, support, amplitudes) -> "StateVector":
        """No check, no copy: one of an index in range, a read-only support
        (ascending indices, nonzero amplitudes) or a read-only fresh buffer."""
        state = cls.__new__(cls)
        state.layout, state.index = layout, index
        state._support, state._amplitudes = support, amplitudes
        return state

    @property
    def amplitudes(self) -> np.ndarray:
        if self._amplitudes is None:
            self._amplitudes = _scattered(self.layout.dim, _support(self))
            self._amplitudes.flags.writeable = False
        return self._amplitudes

    @property
    def norm(self) -> float:
        """The root of the summed `query_masses`: every norm's and distance's rule."""
        return float(np.sqrt(query_masses(self).sum()))


_UNIT = np.ones(1, dtype=np.complex128)
_UNIT.flags.writeable = False
_ROOT2 = float(np.sqrt(2.0))  # the distance between two basic states


def _support(state: StateVector):
    """(indices, amplitudes) of a state not held dense, an index as a support of one; else None."""
    if state.index is not None:
        return np.array([state.index], dtype=np.int64), _UNIT
    return state._support


def _scattered(size: int, support) -> np.ndarray:
    """A fresh dense buffer holding a support, zeros elsewhere."""
    idx, vals = support
    a = np.zeros(size, dtype=np.complex128)
    a[idx] = vals
    return a


def _gate_targets(targets) -> tuple[int, ...]:
    targets = tuple(map(operator.index, targets))
    if len(set(targets)) != len(targets):
        raise DuplicateTargetError(f"duplicate gate targets {targets}")
    if not targets:
        raise TargetOutOfRangeError("gate needs at least one target")
    if len(targets) > MAX_GATE_TARGETS:
        raise TargetOutOfRangeError(
            f"{len(targets)} targets exceeds gate cap {MAX_GATE_TARGETS}")
    return targets


def _admit(m: np.ndarray) -> None:
    """Make m (d x d, or a stack of such) read-only if finite and unitary, else raise."""
    if not np.isfinite(m).all():
        raise NonUnitaryError("matrix has non-finite entries")
    err = np.abs(m @ np.swapaxes(m, -1, -2).conj() - np.eye(m.shape[-1])).max()
    if err > UNITARITY_TOL:
        raise NonUnitaryError(f"matrix fails unitarity by {err:.3e}")
    m.flags.writeable = False


@dataclass(frozen=True)
class LocalUnitary:
    """A small unitary acting on an ordered list of qubit positions."""

    targets: tuple[int, ...]
    matrix: np.ndarray = field(compare=False)

    def __init__(self, targets, matrix):
        targets = _gate_targets(targets)
        m = np.asarray(matrix, dtype=np.complex128)
        d = 1 << len(targets)
        if m.shape != (d, d):
            raise NonUnitaryError(f"matrix shape {m.shape} does not match {len(targets)} targets")
        _admit(m)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _admitted(cls, targets, matrix: np.ndarray) -> LocalUnitary:
        """A gate on a complex128 matrix of the targets' size, a view of a
        stack `_admit` passed: only the targets are checked."""
        gate = object.__new__(cls)
        object.__setattr__(gate, "targets", _gate_targets(targets))
        object.__setattr__(gate, "matrix", matrix)
        return gate


def basis_state(layout: QubitLayout, assignment: BasisAssignment) -> StateVector:
    """Unit amplitude on one basic state."""
    if len(assignment.bits) != layout.total:
        raise LayoutMismatchError(
            f"assignment covers {len(assignment.bits)} positions, layout has {layout.total}")
    return StateVector.basic(layout, sum(b << layout.index_bit(p)
                                         for p, b in enumerate(assignment.bits)))


def gate_block(layout: QubitLayout, gates) -> tuple[tuple, tuple | None]:
    """The gates placed for `apply_round`, found here once: a (bits, gate, flips)
    triple per gate, with its index bits and `kernels.flip_table` (None for a
    dense gate), and their `kernels.affine_tables`.  A target outside the layout raises."""
    placed = tuple((bits, u, kernels.flip_table(bits, u.matrix))
                   for bits, u in ((layout.index_bits(u.targets), u) for u in gates))
    return placed, kernels.affine_tables(layout.total, placed)


def _outgrows(placed, size: int, dim: int) -> bool:
    """Whether a block holds a 3-4 target dense gate and its dense gates
    together could grow a support of `size` past 1/SUPPORT_SHARE of the dim
    amplitudes."""
    grow = [len(bits) for bits, _, flips in placed if flips is None]
    return max(grow, default=0) > 2 and (size << sum(grow)) * SUPPORT_SHARE > dim


def apply_round(state: StateVector, f: OracleTable | None, block) -> StateVector:
    """The XOR query under f (none if f is None), then a `gate_block`'s gates.
    An index-form state steps through queries and 0/1 permutation gates by one
    XOR each, `index ^= flips[read_bits(index, bits)]` for a gate, or by one
    composed map through a block of 2+ gates whose flip tables are all affine
    (`kernels.affine_tables`), and becomes a support of one at the first dense
    gate.  A support densifies into one fresh buffer before a gate that could
    grow it past 1/SUPPORT_SHARE of the amplitudes (a k-target gate grows it at
    most 2**k-fold), or from its query when the block has a 3-4 target dense
    gate and its dense gates together could.  The input is never written."""
    layout = state.layout
    n, nbits = layout.query_width, layout.total
    if f is not None and f.width != n:
        raise WidthMismatchError(f"oracle width {f.width} != query width {n}")
    (placed, tables), index, support, amps = block, state.index, state._support, None
    if index is None and support is None:
        amps = state.amplitudes.copy() if f is None else kernels.apply_query(
            state.amplitudes, nbits, n, f.values)
    elif support is not None and _outgrows(placed, len(support[0]), layout.dim):
        amps, support = _scattered(layout.dim, support), None
        if f is not None:
            amps = kernels.apply_query(amps, nbits, n, f.values)
    elif f is not None:
        if index is not None:
            index ^= int(f.values[index & ((1 << n) - 1)]) << n
        else:
            support = kernels.support_query(*support, n, f.values)
    if index is not None and tables is not None:  # XOR the tables' entries at its bytes
        stepped, placed = 0, ()
        for i, table in enumerate(tables):
            stepped ^= table[(index >> 8 * i) & 255]
        index = stepped
    for bits, gate, flips in placed:
        if amps is None:
            if index is not None:
                if flips is not None:
                    index ^= flips[kernels.read_bits(index, bits)]
                    continue
                support, index = _support(StateVector.basic(layout, index)), None
            if flips is not None or (len(support[0]) << len(bits)) * SUPPORT_SHARE <= layout.dim:
                support = kernels.support_gate(*support, bits, gate.matrix, nbits)
                continue
            amps, support = _scattered(layout.dim, support), None
        kernels.apply_matrix_inplace(amps, nbits, bits, gate.matrix)
    if amps is not None:
        amps.flags.writeable = False
    elif support is not None:
        for a in support:
            a.flags.writeable = False
    return StateVector._of(layout, index, support, amps)


def apply_local_unitary(state: StateVector, u: LocalUnitary) -> StateVector:
    """The working transform: u on its targets, identity elsewhere."""
    return apply_round(state, None, gate_block(state.layout, (u,)))


def apply_query(state: StateVector, f: OracleTable) -> StateVector:
    """XOR query: |w, a, b> -> |w, a, f(a) xor b>."""
    return apply_round(state, f, gate_block(state.layout, ()))


def query_masses(vector: StateVector) -> np.ndarray:
    """Mass on every address word at once (length 2**n array)."""
    n = vector.layout.query_width
    if vector.index is None and vector._support is None:
        return kernels.address_masses(vector.amplitudes, n)
    return _binned(vector, lambda i: i & ((1 << n) - 1), 1 << n)


def _one_hot(size: int, at, dtype) -> np.ndarray:
    """Zeros of `size` with a one (1.0 or True) at `at`, an index or an index array."""
    out = np.zeros(size, dtype=dtype)
    out[at] = 1
    return out


def _binned(state: StateVector, label, size: int) -> np.ndarray:
    """Per label(index) of a state not held dense: an index-form state's one 1.0,
    or a support's squares added by one bincount over its ascending indices, as
    the dense sums add in flat index order (the zeros left out add nothing)."""
    if state.index is not None:
        return _one_hot(size, label(state.index), float)
    idx, vals = state._support
    return np.bincount(label(idx), weights=vals.real ** 2 + vals.imag ** 2, minlength=size)


def occupied_words(state: StateVector) -> np.ndarray:
    """Whether some nonzero amplitude carries each address word (length 2**n
    bool array).  It tests amplitudes, not masses: an amplitude below about
    1e-162 squares to a mass of 0.0 and still moves under a query.  Where a
    state carries none of the words on which f and g differ, the XOR query
    under either moves every nonzero amplitude alike, so a round under g
    equals the round under f value for value (only zeros may differ in sign)."""
    n = state.layout.query_width
    if state.index is None and state._support is None:  # dense: no complex temporary
        return (state.amplitudes.reshape(-1, 1 << n) != 0).any(axis=0)
    at = state.index if state.index is not None else state._support[0]
    return _one_hot(1 << n, at & ((1 << n) - 1), bool)


def query_mass(vector: StateVector, a: BitWord) -> float:
    """Total squared magnitude on basic states whose address half is a:
    `query_masses(vector)[a]`, bit for bit.

    Defined for any vector, normalized or not, so it can be evaluated on
    differences of states.
    """
    n = vector.layout.query_width
    if a.width != n:
        raise WidthMismatchError(f"word width {a.width} != query width {n}")
    if vector.index is None and vector._support is None:  # dense: read the word's column
        column = vector.amplitudes[a.value::1 << n]  # and add its squares in row order
        return float(np.cumsum(column.real ** 2 + column.imag ** 2)[-1])
    return float(query_masses(vector)[a.value])


def difference_masses(v1: StateVector, v2: StateVector) -> np.ndarray:
    """`query_masses` of the vector v1 - v2, bit for bit, in any pair of forms:
    two supports merge with no dense buffer, any other pair holds one, v1 - v2."""
    if v1.layout != v2.layout:
        raise LayoutMismatchError("states use different layouts")
    n = v1.layout.query_width
    masses = np.zeros(1 << n)
    if v1 is v2:  # a reused chain state: the masses of zeros
        return masses
    if v1.index is not None and v2.index is not None:  # +1 at one index and -1 at the other
        for index in (v1.index, v2.index) if v1.index != v2.index else ():
            masses[index & ((1 << n) - 1)] += 1.0
        return masses
    s1, s2 = _support(v1), _support(v2)
    if s1 is not None and s2 is not None:
        # ascending, an index both hold with v1's entry first: v1 + (-v2) is v1 - v2
        idx = np.concatenate((s1[0], s2[0]))
        order = np.argsort(idx, kind="stable")
        idx, vals = idx[order], np.concatenate((s1[1], -s2[1]))[order]
        starts = np.flatnonzero(np.diff(idx, prepend=-1))
        idx, vals = idx[starts], np.add.reduceat(vals, starts)
        keep = vals != 0
        return query_masses(StateVector._of(v1.layout, None, (idx[keep], vals[keep]), None))
    if s1 is not None:  # v2 - v1 is -(v1 - v2): the same squares
        v1, v2, s1, s2 = v2, v1, s2, s1
    if s2 is None:
        return kernels.address_masses(v1.amplitudes - v2.amplitudes, n)
    diff = v1.amplitudes.copy()
    diff[s2[0]] -= s2[1]
    return kernels.address_masses(diff, n)


def oracle_distance(state: StateVector, f: OracleTable, g: OracleTable) -> float:
    """Square root of the query mass on the words where f and g differ."""
    n = state.layout.query_width
    if f.width != n or g.width != n:
        raise WidthMismatchError("oracle widths must match the query register")
    return float(np.sqrt(query_masses(state)[diff_set(f, g)].sum()))


def l2_distance(v1: StateVector, v2: StateVector) -> float:
    """Euclidean distance, the `norm` of v1 - v2: the root of the summed
    `difference_masses`, with the same bits in any pair of forms (two indices: 0.0 or sqrt(2))."""
    if v1.index is None or v2.index is None or v1.layout != v2.layout:
        return float(np.sqrt(difference_masses(v1, v2).sum()))
    return 0.0 if v1.index == v2.index else _ROOT2


def readout_distribution(state: StateVector, positions) -> np.ndarray:
    """Probability of each value read MSB first off the given qubit positions."""
    bits = state.layout.index_bits(positions)
    if state.index is None and state._support is None:
        return kernels.value_distribution(state.amplitudes, state.layout.total, bits)
    return _binned(state, lambda i: kernels.read_bits(i, bits), 1 << len(bits))


def observe(state: StateVector, seed) -> BasisAssignment:
    """Sample one basic state under the squared-magnitude distribution.

    Pure sampling: the stored state is never collapsed, so repeated calls
    draw with replacement.  Deterministic given the seed, and the same draw
    in every form: the running sums of the nonzero squares are the dense
    running sums where they step.
    """
    rng = as_generator(seed)
    layout = state.layout
    norm = state.norm
    if not abs(norm - 1.0) <= 1e-6:  # NaN fails it too
        raise NotNormalizedError(f"state norm {norm:.9f} is not 1 within 1e-6")
    idx, vals = _support(state) or (None, state.amplitudes)
    cum = np.cumsum(vals.real ** 2 + vals.imag ** 2)
    index = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    if idx is None or index == len(idx):  # past the end: the dense path's last index
        index = min(index, layout.dim - 1)
    else:
        index = int(idx[index])
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


def _haar_stack(real: np.ndarray, imag: np.ndarray) -> np.ndarray:
    """Haar unitaries from the real and imaginary parts of a (count, d, d) Ginibre stack."""
    q, r = np.linalg.qr((real + 1j * imag) / np.sqrt(2))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return _haar_stack(*rng.standard_normal((2, 1, dim, dim)))[0]


def random_gate(targets, rng: np.random.Generator) -> LocalUnitary:
    return LocalUnitary(tuple(targets), haar_unitary(1 << len(targets), rng))


def state_dump(state: StateVector, nonzero_only: bool = True) -> str:
    """Debug dump: one "index re im" line per amplitude, 17 significant digits.

    With nonzero_only=False every amplitude is listed, zeros included.
    Nonzero lines are the same in every form, and so is every line of a
    chain state: a zero prints as "0", as no dense gate's product wrote
    -0.0 on OpenBLAS 0.3.31 (none in 150 Haar gates at 6-14 qubits).
    """
    support = _support(state)
    if nonzero_only and support is not None:
        pairs = zip(support[0].tolist(), support[1].tolist())
    else:
        pairs = enumerate(state.amplitudes)
    lines = [f"{i} {amp.real:.17g} {amp.imag:.17g}"
             for i, amp in pairs if amp != 0 or not nonzero_only]
    return "\n".join(lines) + "\n"
