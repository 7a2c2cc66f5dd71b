"""Collapsed query programs and their execution.

A program is a prelude of gates followed by t rounds; executing round i
means one oracle query and then the round's gate list U_i.  The trace
records the state chain chi_0 (after the prelude) through chi_t, so
chi_i is exactly the state the (i+1)-th query acts on.

Program input convention: the input word is written on the first n
working qubits, every other qubit starts at 0.  Output convention: the
result is read verbatim off the program's output region.

Every chain is stepped one block at a time by `qsim.apply_round`: block 0 is
the prelude, block i + 1 the query and the gates of round i.  Each gate is
placed once per program, on its index bits and with its flip table, when the
program is built (`QueryProgram.blocks`), and a block of 2+ gates whose
tables are all affine with their composed index map.  `chain` (and through
it `run`, `run_final` and `success_probability`) and the adversary code in
`analysis` step their states that way, so a basic input stays in the index
form through every 0/1 permutation gate and query, a composed block by one
map (the whole run, for the classical-emulation, truncated-emulation and
concentrated families), and from its first other gate on is carried as its
support while that stays small.  This module never reads a state's form.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, LayoutMismatchError, WidthMismatchError
from .oracles import BitWord, OracleTable
from .qsim import (LocalUnitary, QubitLayout, StateVector, _admit, _haar_stack,
                   apply_round, cnot_gate, gate_block, readout_distribution)
from .rng import as_generator


@dataclass(frozen=True)
class QueryProgram:
    layout: QubitLayout
    prelude: tuple[LocalUnitary, ...]
    rounds: tuple[tuple[LocalUnitary, ...], ...]
    output_region: tuple[int, ...]
    # the prelude, then each round, as `qsim.gate_block`s
    blocks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "prelude", tuple(self.prelude))
        object.__setattr__(self, "rounds", tuple(tuple(r) for r in self.rounds))
        object.__setattr__(self, "output_region", tuple(self.output_region))
        object.__setattr__(self, "blocks", tuple(gate_block(self.layout, b)
                                                 for b in (self.prelude, *self.rounds)))
        self.layout.index_bits(self.output_region)  # raises for a repeated or outside position

    @property
    def query_count(self) -> int:
        return len(self.rounds)

    def all_gates(self):
        yield from self.prelude
        for r in self.rounds:
            yield from r


@dataclass(frozen=True)
class Trace:
    """The state chain chi_0..chi_t of one run."""

    states: tuple[StateVector, ...]
    query_count: int


def initial_state(layout: QubitLayout, input_word: BitWord) -> StateVector:
    """The input word on the first n working qubits, in the index form."""
    n = layout.query_width
    if input_word.width != n:
        raise WidthMismatchError(f"input width {input_word.width} != query width {n}")
    if input_word.value != 0 and layout.work_count < n:
        raise LayoutMismatchError(
            f"nonzero input needs {n} working qubits, layout has {layout.work_count}")
    return StateVector.basic(layout, input_word.value << (layout.work_count + n))


def chain(prog: QueryProgram, f: OracleTable, input_word: BitWord):
    """chi_0..chi_t under f, one at a time: a caller that needs only running
    sums over the chain holds one state, not t + 1."""
    if f.width != prog.layout.query_width:
        raise WidthMismatchError(
            f"oracle width {f.width} != query width {prog.layout.query_width}")
    state = initial_state(prog.layout, input_word)
    for i, block in enumerate(prog.blocks):
        state = apply_round(state, f if i else None, block)
        yield state


def run(prog: QueryProgram, f: OracleTable, input_word: BitWord) -> Trace:
    """Execute and keep the whole state chain."""
    return Trace(tuple(chain(prog, f, input_word)), prog.query_count)


def run_final(prog: QueryProgram, f: OracleTable, input_word: BitWord) -> StateVector:
    """Execute keeping only the final state (memory-light path for sweeps)."""
    for state in chain(prog, f, input_word):
        pass
    return state


def output_distribution(prog: QueryProgram, final_state: StateVector) -> np.ndarray:
    """Probability of each output-region value in the final state."""
    return readout_distribution(final_state, prog.output_region)


def success_probability(prog: QueryProgram, f: OracleTable, input_word: BitWord,
                        target: BitWord) -> float:
    """Exact probability that observing the final state reads target off the
    output region (no sampling)."""
    if target.width != len(prog.output_region):
        raise WidthMismatchError(
            f"target width {target.width} != output region size {len(prog.output_region)}")
    return float(output_distribution(prog, run_final(prog, f, input_word))[target.value])


def classical_emulation_program(n: int, T: int) -> QueryProgram:
    """A T-query program computing the T-fold iteration of the oracle.

    Fixed reversible layout: working registers r_0..r_T of n qubits each,
    r_0 holding the input.  Round i copies the answer into r_{i+1}, copies
    it back onto the answer half to clear it, clears the address of r_i,
    and (except after the last query) loads r_{i+1} as the next address;
    the prelude loads r_0 as the first address.  The output region is r_T,
    and on every oracle the final state is a single basic state holding
    the T-th orbit word there.
    """
    if T < 1:
        raise ValueError("need at least one query")
    layout = QubitLayout(n * (T + 1), n)
    reg = [tuple(range(j * n, (j + 1) * n)) for j in range(T + 1)]
    addr = layout.address_positions
    answer = layout.answer_positions
    copy = lambda src, dst: [cnot_gate(src[j], dst[j]) for j in range(n)]
    prelude = copy(reg[0], addr)
    rounds = []
    for i in range(T):
        gates = copy(answer, reg[i + 1])      # capture f(r_i)
        gates += copy(reg[i + 1], answer)     # clear the answer half
        gates += copy(reg[i], addr)           # clear the address
        if i < T - 1:
            gates += copy(reg[i + 1], addr)   # load the next query address
        rounds.append(tuple(gates))
    return QueryProgram(layout, tuple(prelude), tuple(rounds), reg[T])


def refuse_oversize(count: int, each: int, what: str) -> None:
    """Raise MemoryError, before anything is drawn, for `count` items of `each` bytes that
    physical memory cannot hold; `what` names them, with "{}" for the count."""
    if count * each > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise MemoryError(f"{what.format(count)} ({each} B each) exceeds memory")


def random_program(n: int, work_qubits: int, t: int, seed) -> QueryProgram:
    """Haar-random small-gate program: 1..4 gates on 1 or 2 random targets
    in the prelude and in every round.  Per block (prelude, rounds 1..t): the gate
    count, then per gate k, the targets (`rng.choice`, no replacement), the real
    and then imaginary Ginibre part, as `random_gate` draws; one QR per size."""
    refuse_oversize(t, 3000, "a program of {} rounds")  # measured: 3 KB a round at its peak
    rng = as_generator(seed)
    layout = QubitLayout(work_qubits, n)
    blocks, draws = [], {1: [], 2: []}  # (targets, place in draws[k]) per gate
    for _ in range(t + 1):
        block = []
        for _ in range(int(rng.integers(1, 5))):
            k = int(rng.integers(1, 3))
            targets = tuple(int(x) for x in rng.choice(layout.total, size=k, replace=False))
            block.append((targets, len(draws[k])))
            draws[k].append(rng.standard_normal((2, 1 << k, 1 << k)))  # real, imaginary
        blocks.append(block)
    unitaries = {k: _haar_stack(*np.stack(parts, axis=1)) for k, parts in draws.items() if parts}
    for u in unitaries.values():
        _admit(u)
    gates = [tuple(LocalUnitary._admitted(targets, unitaries[len(targets)][j])
                   for targets, j in block) for block in blocks]
    out_width = min(n, layout.total)
    return QueryProgram(layout, gates[0], tuple(gates[1:]), tuple(range(out_width)))


def truncate_after_query(prog: QueryProgram, k: int) -> QueryProgram:
    """First k rounds only; prelude and output region unchanged."""
    if not 0 <= k <= prog.query_count:
        raise IndexError(f"cannot keep {k} of {prog.query_count} rounds")
    return QueryProgram(prog.layout, prog.prelude, prog.rounds[:k], prog.output_region)


# program files

def _gate_to_obj(g: LocalUnitary) -> dict:
    flat = [[float(z.real), float(z.imag)] for z in g.matrix.ravel()]
    return {"targets": list(g.targets), "matrix": flat}


def _gate_from_obj(obj: dict) -> LocalUnitary:
    targets = tuple(obj["targets"])
    d = 1 << len(targets)
    flat = obj["matrix"]
    if len(flat) != d * d:
        raise InputError(f"gate matrix must have {d * d} entries, got {len(flat)}")
    m = np.array([complex(re, im) for re, im in flat], dtype=np.complex128).reshape(d, d)
    return LocalUnitary(targets, m)


def program_to_json(prog: QueryProgram) -> str:
    obj = {
        "format": "qqlab-program-v1",
        "layout": {"work_count": prog.layout.work_count,
                   "query_width": prog.layout.query_width},
        "prelude": [_gate_to_obj(g) for g in prog.prelude],
        "rounds": [[_gate_to_obj(g) for g in rnd] for rnd in prog.rounds],
        "output_region": list(prog.output_region),
    }
    return json.dumps(obj, indent=1)


def program_from_json(text: str | bytes) -> QueryProgram:
    """A program from a file's text or UTF-8 bytes; a malformed file raises InputError."""
    try:
        obj = json.loads(text)
        if obj.get("format") != "qqlab-program-v1":
            raise InputError(f"unknown program format {obj.get('format')!r}")
        layout = QubitLayout(obj["layout"]["work_count"], obj["layout"]["query_width"])
        prelude = tuple(_gate_from_obj(g) for g in obj["prelude"])
        rounds = tuple(tuple(_gate_from_obj(g) for g in rnd) for rnd in obj["rounds"])
        return QueryProgram(layout, prelude, rounds, tuple(obj["output_region"]))
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError, AttributeError) as e:
        raise InputError(f"malformed program file: {e!r}") from None


def save_program(prog: QueryProgram, path) -> None:
    with open(path, "w") as fh:
        fh.write(program_to_json(prog))


def load_program(path) -> QueryProgram:
    with open(path, "rb") as fh:
        return program_from_json(fh.read())
