"""Inequality checks, the adversarial hard-oracle construction, and the
query-mass matrix experiment.

Two kinds of facts are handled very differently here:

* Exact consequences of unitarity (the single-query change bound, the
  per-round hybrid bound, the measured drift recursion, the triangle
  step, the mass-matrix pigeonhole at distinct orbit words).  These are
  theorems about the recorded chains; the code raises if one fails,
  because that can only mean a simulator bug.

* The adversary-construction rate bounds involving the alpha threshold.
  Each of those holds *when the low-mass premise behind it holds*; the
  first round of a computation that concentrates its query mass on the
  input word genuinely breaks the premise, and the bound with it.  Every
  recorded bound row therefore carries the measured premise, a `checked`
  flag, and the raw values, so reports separate theorem violations
  (never expected) from premise failures (expected for concentrated
  programs, and reported as such).

The construction and the bound report step their chains with
`qsim.apply_round`, as `programs.chain` does, and never read a state's
form; each chain state is stepped at most once.  The report reads the
trace in one pass, and mutated-oracle runs start from the f-run's chi_0,
which makes no query.  `lemma2_check` and the mass matrix read
`programs.chain` as a stream, keeping running sums and the final state
only.

A chain under g run beside a known chain under f shares its states while
each state it has left carried no word where f and g differ
(`qsim.occupied_words`: no nonzero amplitude there, which a mass of 0.0
does not show): the two XOR queries then move every nonzero amplitude
alike, the gates give each the same bits, and as chain states hold no -0.0
(`qsim`) every report keeps its bits.  `lemma2_check`'s g-run keeps that
as a flag, `shared`; the bound report's swapped step is the trace's next
state unless the trace state carries a changed word, and its fixed and
freshly-redirected chains share so too (the fresh one restarted after the
pass).  `pigeonhole_mutation_check` takes the f-run's final state when no
pre-query state carries the mutated word, and steps from chi_0 otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import QqlabError, TraceNotSucceededError
from .oracles import (BitWord, OracleTable, _walk, diff_set, iterate, mutate,
                      sample_uniform_oracle)
from .programs import QueryProgram, chain, initial_state
from .qsim import (StateVector, apply_query, apply_round, difference_masses, l2_distance,
                   occupied_words, oracle_distance, query_mass, query_masses)
from .rng import as_generator

TOL = 1e-9
L2_DIAMETER = 2.0


@dataclass(frozen=True)
class GapReport:
    """One inequality instance: lhs <= rhs expected, slack = rhs - lhs."""

    context: str
    lhs: float
    rhs: float
    checked: bool = True
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "rhs", float(self.rhs))
        object.__setattr__(self, "checked", bool(self.checked))

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def vacuous(self) -> bool:
        return self.rhs > L2_DIAMETER

    def holds(self) -> bool:
        return self.lhs <= self.rhs + TOL


def lemma1_check(state: StateVector, f: OracleTable, g: OracleTable,
                 context: str = "query_change") -> GapReport:
    """Single-query sensitivity: changing the oracle moves the state by at
    most twice the root query mass on the disagreement words."""
    lhs = l2_distance(apply_query(state, f), apply_query(state, g))
    rhs = 2.0 * oracle_distance(state, f, g)
    return GapReport(context, lhs, rhs)


def lemma2_check(prog: QueryProgram, f: OracleTable, a: BitWord, y: BitWord,
                 input_word: BitWord, context: str = "hybrid") -> GapReport:
    """Hybrid bound: a single-word mutation moves the final state by at most
    twice the summed root query masses on that word across the rounds."""
    g = mutate(f, a, y)
    changed = diff_set(f, g)
    # roots sums over the pre-query states.  The g-run is the f-run's own state
    # while every pre-query state so far carried no changed word (shared)
    roots, shared = 0, True
    for i, state in enumerate(chain(prog, f, input_word)):
        mutated = state if shared else apply_round(mutated, g, prog.blocks[i])
        if i < prog.query_count:
            roots += np.sqrt(query_mass(state, a))
            shared = shared and not occupied_words(state)[changed].any()
    lhs = l2_distance(state, mutated)
    # when g == f no word actually differs, so the mass sum is empty
    rhs = 0.0 if g == f else 2.0 * roots
    return GapReport(context, lhs, rhs,
                     extra={"mutated_word": str(a), "new_value": str(y)})


# adversarial hard-oracle construction

@dataclass(frozen=True)
class AdversaryStep:
    """One entry of the inductive construction: state, oracle, candidate
    set (a read-only bool mask over the 2**n words) and pivot, plus the
    address-mass vector of the state for audit."""

    state: StateVector
    oracle: OracleTable
    candidates: np.ndarray
    pivot: BitWord
    masses: np.ndarray = field(compare=False)


@dataclass
class AdversaryTrace:
    """The construction's steps; final_candidates is a read-only bool mask like each step's."""

    steps: list[AdversaryStep]
    T: int
    epsilon: float
    alpha: float
    threshold: float
    succeeded: bool
    exhausted_at: int | None = None
    final_candidates: np.ndarray | None = None
    final_value: BitWord | None = None
    pivot_mass_max: float | None = None

    @property
    def t(self) -> int:
        return len(self.steps) - 1

    @property
    def final_oracle(self) -> OracleTable:
        return self.steps[-1].oracle


def _alpha_threshold(T: int, epsilon: float) -> tuple[float, float]:
    """alpha = 5 + epsilon/2 and the mass threshold T**-alpha, which must fit a float."""
    try:
        alpha = 5.0 + epsilon / 2.0
        return alpha, float(T) ** (-alpha)
    except OverflowError:
        raise ValueError(f"the mass threshold T**-(5 + epsilon/2) overflows a float at "
                         f"T = {T}, epsilon = {epsilon}") from None


def build_hard_oracle(prog: QueryProgram, T: int, epsilon: float, seed) -> AdversaryTrace:
    """Run the inductive low-mass-pivot construction against the program.

    Starting from a uniformly sampled oracle and the all-zero input, each
    round is executed under the current oracle; words whose query mass in
    any state seen so far reaches 1/T**alpha are struck from the candidate
    set (a read-only bool mask over the 2**n words; step 0's holds them all),
    the next pivot is drawn uniformly from the survivors, and the
    oracle is redirected at the previous pivot to point at it.  (Striking
    words that are already heavy in the initial state is what guarantees
    the final pivot is light in *every* recorded state; see the ledger.)

    The trace succeeds iff no candidate set empties; an emptied set is
    returned as a failed trace with the emptying step recorded.  After the
    last round one more value is drawn from the surviving candidates
    (excluding the current image of the last pivot) to serve as the fresh
    value for the (T)-th oracle used by the bound report.

    Requires the single-query-short regime: prog.query_count == T - 1.
    """
    t = prog.query_count
    if t != T - 1:
        raise ValueError(f"construction needs query count T-1 = {T - 1}, program has {t}")
    layout = prog.layout
    n = layout.query_width
    alpha, threshold = _alpha_threshold(T, epsilon)
    rng = as_generator(seed)

    f = sample_uniform_oracle(n, rng)
    zero = BitWord.zero(n)
    full = np.ones(1 << n, dtype=bool)
    full.flags.writeable = False

    state = apply_round(initial_state(layout, zero), None, prog.blocks[0])
    masses = query_masses(state)
    steps = [AdversaryStep(state, f, full, zero, masses)]
    available = masses < threshold
    available.flags.writeable = False

    def fail(at: int) -> AdversaryTrace:
        return AdversaryTrace(steps, T, epsilon, alpha, threshold,
                              succeeded=False, exhausted_at=at)

    for i in range(t):
        state = apply_round(state, steps[-1].oracle, prog.blocks[i + 1])
        masses = query_masses(state)
        available = available & (masses < threshold)
        if not available.any():
            return fail(i + 1)
        available.flags.writeable = False
        pivot = BitWord(n, int(rng.choice(np.nonzero(available)[0])))
        f = mutate(steps[-1].oracle, steps[-1].pivot, pivot)
        steps.append(AdversaryStep(state, f, available, pivot, masses))

    survivors = np.nonzero(available)[0]
    choices = survivors[survivors != steps[-1].oracle.values[steps[-1].pivot.value]]
    if len(choices) == 0:
        return fail(t + 1)
    final_value = BitWord(n, int(rng.choice(choices)))

    x_t = steps[-1].pivot
    pivot_mass_max = max(float(s.masses[x_t.value]) for s in steps)
    if t >= 1 and pivot_mass_max >= threshold:
        raise QqlabError(  # construction guarantees this; reaching here is a bug
            f"pivot mass {pivot_mass_max} not below threshold {threshold}")
    return AdversaryTrace(steps, T, epsilon, alpha, threshold, succeeded=True,
                          final_candidates=available, final_value=final_value,
                          pivot_mass_max=pivot_mass_max)


@dataclass
class BoundReport:
    """Measured hybrid quantities of a succeeded trace, against their rate
    bounds.

    deltas[i]    distance between applying round i under the evolving vs the
                 final oracle, both from the trace state.
    drifts[i]    distance between the trace chain and the fixed-final-oracle
                 chain after i rounds.
    pivot_roots_primed[i]  root query mass of the fixed-oracle chain on the
                 last pivot.
    final_gap    distance between the fixed-oracle chain and the chain under
                 the freshly redirected oracle, after all rounds.
    premises[i]  True iff every word where oracle i disagrees with the final
                 oracle was below the mass threshold in state i (the
                 assumption behind the rate bounds at round i).
    """

    t: int
    T: int
    alpha: float
    threshold: float
    deltas: list[float]
    drifts: list[float]
    pivot_roots_primed: list[float]
    final_gap: float
    chain_rhs: float
    premises: list[bool]
    premise_masses: list[float]
    rows: list[GapReport]

    def violations(self) -> list[GapReport]:
        return [r for r in self.rows if r.checked and not r.holds()]

    def raw_violations(self) -> list[GapReport]:
        return [r for r in self.rows if not r.holds()]


def adversary_bound_report(prog: QueryProgram, trace: AdversaryTrace,
                           T: int, epsilon: float) -> BoundReport:
    """Step a succeeded trace's states under the fixed final oracle and the
    freshly redirected one, and check every recorded quantity.  T and
    epsilon must be the ones the trace was built for.

    Exact identities (drift recursion, triangle step, hybrid chain on the
    final gap) are enforced with raises.  The alpha-rate bounds are emitted
    as report rows whose `checked` flag reflects whether their low-mass
    premise actually held; raw values are always recorded.
    """
    if not trace.succeeded:
        raise TraceNotSucceededError(f"trace exhausted at step {trace.exhausted_at}")
    t = trace.t
    layout = prog.layout
    if layout != trace.steps[0].state.layout or prog.query_count != t:
        raise ValueError(
            f"program ({prog.query_count} rounds on {layout}) cannot have produced "
            f"the trace ({t} rounds on {trace.steps[0].state.layout})")
    if T != trace.T or epsilon != trace.epsilon:
        raise ValueError(f"the trace was built for T = {trace.T}, epsilon = {trace.epsilon}, "
                         f"not T = {T}, epsilon = {epsilon}")
    alpha = trace.alpha
    threshold = trace.threshold
    x_t = trace.steps[-1].pivot
    f_final = trace.final_oracle

    root = float(T) ** (-alpha / 2.0)
    bound_delta = 2.0 * np.sqrt(t) * root if t else 0.0
    bound_pivot = 3.0 * t ** 1.5 * root
    bound_final = 6.0 * t ** 2.5 * root

    # one pass over the trace; at step i, the fixed-final-oracle chain's
    # pivot root, triangle step and drift (exact identities raise; they can
    # only fail on a simulator bug, never on an adversarial input), then for
    # i < t the premise (every disagreement word of (f_i, f_final) light in
    # state i), the delta of state i under f_final, and the chain's next state.
    # The freshly-redirected chain is the fixed chain while that carries no
    # x_t; from the first state that does, it is stepped after the pass from
    # the last trace state the fixed chain still was, so no third chain is held
    premises, premise_masses, deltas, drifts, pivot_roots_primed = [], [], [], [0.0], []
    primed, fresh_is_primed, fresh_from = trace.steps[0].state, True, 0
    for i, step in enumerate(trace.steps):
        root_primed = float(np.sqrt(step.masses[x_t.value] if primed is step.state
                                    else query_mass(primed, x_t)))
        pivot_roots_primed.append(root_primed)
        tri_rhs = (float(np.sqrt(difference_masses(step.state, primed)[x_t.value]))
                   + float(np.sqrt(step.masses[x_t.value])))
        if root_primed > tri_rhs + TOL:
            raise QqlabError(f"triangle step failed at i={i}: {root_primed} > {tri_rhs}")
        if drifts[i] > sum(deltas) + TOL:
            raise QqlabError(f"drift recursion failed at i={i}: {drifts[i]} > {sum(deltas)}")
        if i == t:
            break
        if fresh_is_primed:
            if primed is step.state:
                fresh_from = i
            fresh_is_primed = not occupied_words(primed)[x_t.value]
        changed = diff_set(step.oracle, f_final)
        worst = float(step.masses[changed].max(initial=0.0))
        premise_masses.append(worst)
        premises.append(worst < threshold)
        block, following = prog.blocks[i + 1], trace.steps[i + 1].state
        swapped = (apply_round(step.state, f_final, block)
                   if occupied_words(step.state)[changed].any() else following)
        deltas.append(l2_distance(following, swapped))
        if primed is step.state:  # the fixed chain is still the trace's: the same step
            primed = swapped
            drifts.append(deltas[-1])
        else:
            swapped = None  # dropped before the fixed chain steps
            primed = apply_round(primed, f_final, block)
            drifts.append(l2_distance(following, primed))

    f_fresh = mutate(f_final, x_t, trace.final_value)
    if fresh_is_primed:
        fresh = primed
    else:
        fresh = trace.steps[fresh_from].state
        for block in prog.blocks[fresh_from + 1:]:
            fresh = apply_round(fresh, f_fresh, block)
    final_gap = l2_distance(primed, fresh)

    chain_rhs = 2.0 * sum(pivot_roots_primed[:t])
    if final_gap > chain_rhs + TOL:
        raise QqlabError(f"hybrid chain failed: {final_gap} > {chain_rhs}")

    rows = []
    for i in range(t):
        rows.append(GapReport(f"round_change[i={i}]", deltas[i], bound_delta,
                              checked=premises[i],
                              extra={"premise_mass": premise_masses[i]}))
    for i in range(1, t + 1):
        ok = all(premises[:i])
        rows.append(GapReport(f"chain_drift[i={i}]", drifts[i],
                              2.0 * i * np.sqrt(t) * root, checked=ok))
    if t >= 1:
        for i in range(t + 1):
            ok = True if i == 0 else all(premises[:i])
            rows.append(GapReport(f"pivot_mass[i={i}]", pivot_roots_primed[i],
                                  bound_pivot, checked=ok))
    rows.append(GapReport("final_gap", final_gap, bound_final,
                          checked=all(premises[:max(t - 1, 0)]),
                          extra={"chain_rhs": chain_rhs}))

    return BoundReport(t=t, T=T, alpha=alpha, threshold=threshold, deltas=deltas,
                       drifts=drifts, pivot_roots_primed=pivot_roots_primed,
                       final_gap=final_gap, chain_rhs=chain_rhs, premises=premises,
                       premise_masses=premise_masses, rows=rows)


# query-mass matrix over the orbit of the input word

@dataclass
class MassMatrix:
    """entries[i, j] = query mass of pre-query state i on orbit word j.

    Row sums deduplicate repeated orbit words (mass is per word); the
    column minimum is checked against t/T when the orbit words are
    distinct, and against the unconditional column-average otherwise.
    Held are the `columns`, `sums` and `words` of the orbit's distinct words
    in walk order, then of its first repeat if T reaches it; `entries`,
    `col_sums` and `orbit_words`, the T-column views, are built when read.
    """

    columns: np.ndarray
    row_sums: np.ndarray
    sums: np.ndarray
    words: tuple[BitWord, ...]
    t: int
    T: int
    distinct_orbit: bool

    def _orbit_columns(self) -> np.ndarray:
        # the walk, cycling from the first step of the last held word
        j, start = np.arange(self.T), self.words.index(self.words[-1])
        cycle = len(self.words) - (not self.distinct_orbit) - start
        return np.where(j < start, j, start + (j - start) % cycle)

    @property
    def entries(self) -> np.ndarray:
        return np.take(self.columns, self._orbit_columns(), axis=1)

    @property
    def col_sums(self) -> np.ndarray:
        return self.sums[self._orbit_columns()]

    @property
    def orbit_words(self) -> tuple[BitWord, ...]:
        return tuple(self.words[j] for j in self._orbit_columns())


def query_mass_matrix(prog: QueryProgram, f: OracleTable, T: int,
                      input_word: BitWord) -> MassMatrix:
    return _mass_matrix_and_final_state(prog, f, T, input_word,
                                        chain(prog, f, input_word))[0]


def _mass_matrix_and_final_state(prog: QueryProgram, f: OracleTable, T: int,
                                 input_word: BitWord, states) -> tuple[MassMatrix, StateVector]:
    t = prog.query_count
    if T < 1:
        raise ValueError("need T >= 1 orbit words")
    walk, start = _walk(f, input_word, T)
    distinct = len(walk) == T
    # with the first repeat, at least two columns when T is: numpy adds one
    # column's rows pairwise, and several columns' rows in order
    values = np.array(walk if distinct else walk + [walk[start]])
    unique = np.unique(values)
    columns = np.zeros((t, len(values)))
    row_sums = np.zeros(t)
    for i, final in enumerate(states):
        if i < t:  # the last state of the chain is the final one
            masses = query_masses(final)
            columns[i] = masses[values]
            row_sums[i] = masses[unique].sum()
            if row_sums[i] > 1.0 + TOL:
                raise QqlabError(f"row {i} mass {row_sums[i]} exceeds 1")
    sums = columns.sum(axis=0)
    floor = float(sums.min())
    if distinct:
        limit = t / T
    else:  # the T-column average, each word weighted by its orbit count: in
        # another order than a T-column sum, but only the raise below reads it
        reps, extra = divmod(T - start, len(walk) - start)
        weights = np.ones(len(walk))
        weights[start:] = reps
        weights[start:start + extra] += 1
        limit = float((sums[:-1] * weights).sum()) / T
    if floor > limit + TOL:
        raise QqlabError(f"pigeonhole failed: min column {floor} > {limit}")
    words = tuple(BitWord(f.width, int(v)) for v in values)
    return MassMatrix(columns, row_sums, sums, words, t, T, distinct), final


def pigeonhole_mutation_check(prog: QueryProgram, f: OracleTable, T: int,
                              input_word: BitWord, seed) -> GapReport:
    """Mutate the oracle on the lightest orbit column's word and compare the
    final states; the gap is bounded by the per-round root masses and, via
    Cauchy-Schwarz, by the column mass."""
    states = chain(prog, f, input_word)
    mutated = next(states)  # chi_0 makes no query, so the g-run starts from it too
    occupied = np.zeros(1 << f.width, dtype=bool)  # the words some pre-query state carries

    def recorded(states):
        for i, state in enumerate(states):
            if i < prog.query_count:
                np.logical_or(occupied, occupied_words(state), out=occupied)
            yield state

    m, final_f = _mass_matrix_and_final_state(prog, f, T, input_word,
                                              recorded(itertools.chain((mutated,), states)))
    t = m.t
    j_star = int(np.argmin(m.sums))  # the first of equal columns: a word's first step
    word = m.words[j_star]
    rng = as_generator(seed)
    current = int(f.values[word.value])
    others = np.setdiff1d(np.arange(1 << f.width), [current])
    fresh = BitWord(f.width, int(rng.choice(others)))
    g = mutate(f, word, fresh)

    if occupied[word.value]:
        for block in prog.blocks[1:]:
            mutated = apply_round(mutated, g, block)
    else:  # no pre-query state carries the mutated word: the g-run is the f-run
        mutated = final_f
    lhs = l2_distance(final_f, mutated)
    per_round = 2.0 * float(np.sqrt(m.columns[:, j_star]).sum())
    cauchy = 2.0 * float(np.sqrt(t * m.sums[j_star]))
    rhs = min(per_round, cauchy)
    changed = iterate(g, input_word, T) != iterate(f, input_word, T)
    return GapReport("orbit_mutation", lhs, rhs, extra={
        "j_star": j_star,
        "column_sum": float(m.sums[j_star]),
        "column_limit": t / T,
        "per_round_rhs": per_round,
        "cauchy_rhs": cauchy,
        "sqrtT_rhs": 2.0 * t / np.sqrt(T),
        "max_row_sum": float(m.row_sums.max()) if t else 0.0,
        "distinct_orbit": m.distinct_orbit,
        "result_changed": changed,
        "mutated_word": str(word),
    })
