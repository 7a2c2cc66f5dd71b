import itertools
import tracemalloc

import numpy as np
import pytest

from qqlab.analysis import (GapReport, adversary_bound_report,
                            build_hard_oracle, lemma1_check, lemma2_check,
                            pigeonhole_mutation_check, query_mass_matrix)
from qqlab import analysis, kernels, qsim
from qqlab.errors import TraceNotSucceededError
from qqlab.harness import build_program
from qqlab.oracles import (BitWord, OracleTable, all_oracles, iterate, make_oracle, mutate,
                           orbit, sample_uniform_oracle)
from qqlab.programs import (QueryProgram, classical_emulation_program, initial_state,
                            random_program, run, truncate_after_query)
from qqlab.qsim import (LocalUnitary, QubitLayout, StateVector, apply_local_unitary,
                        apply_query, h_gate, l2_distance, query_mass, query_masses,
                        random_gate, x_gate)
from qqlab.rng import as_generator, generator


def w(s):
    return BitWord.from_string(s)


def random_state(layout, rng):
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def concentrated_program(n: int, t: int, work: int = 1) -> QueryProgram:
    """Every pre-query state keeps all its query mass on the input word."""
    lay = QubitLayout(work, n)
    return QueryProgram(lay, (), tuple((x_gate(0),) for _ in range(t)),
                        tuple(range(min(n, lay.total))))


def uniform_address_program(n: int, t: int) -> QueryProgram:
    """Prelude spreads the address uniformly; rounds are gateless."""
    lay = QubitLayout(1, n)
    prelude = tuple(h_gate(p) for p in lay.address_positions)
    return QueryProgram(lay, prelude, ((),) * t, (0,))


class TestLemma1Check:
    def test_equal_oracles(self):
        lay = QubitLayout(1, 2)
        st = random_state(lay, generator(0, "l1", 0))
        f = sample_uniform_oracle(2, 0)
        rep = lemma1_check(st, f, f)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.holds()

    def test_frozen_half_mass_example(self):
        # 4-amplitude computation by hand: lhs 1, rhs 2/sqrt(2)
        lay = QubitLayout(0, 1)
        amps = np.zeros(4, complex)
        amps[0] = amps[1] = 1 / np.sqrt(2)
        st = StateVector(lay, amps)
        f = make_oracle(1, [w("0"), w("1")])
        g = mutate(f, w("0"), w("1"))
        rep = lemma1_check(st, f, g)
        assert rep.lhs == pytest.approx(1.0, abs=1e-12)
        assert rep.rhs == pytest.approx(2 / np.sqrt(2), abs=1e-12)

    def test_random_sweep_never_violates(self):
        for trial in range(300):
            rng = generator(1, "l1sweep", trial)
            n = int(rng.integers(1, 4))
            lay = QubitLayout(int(rng.integers(0, 3)), n)
            st = random_state(lay, rng)
            rep = lemma1_check(st, sample_uniform_oracle(n, rng),
                               sample_uniform_oracle(n, rng))
            assert rep.slack >= -1e-9


class TestLemma2Check:
    def test_noop_mutation(self):
        prog = random_program(2, 2, 3, 4)
        f = sample_uniform_oracle(2, 4)
        a = w("01")
        rep = lemma2_check(prog, f, a, f(a), w("00"))
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_one_round_orthogonal_answers(self):
        # all mass on the mutated address: lhs sqrt(2), rhs 2
        lay = QubitLayout(0, 1)
        prog = QueryProgram(lay, (), ((),), (0,))
        f = make_oracle(1, [w("0"), w("1")])
        rep = lemma2_check(prog, f, w("0"), w("1"), w("0"))
        assert rep.lhs == pytest.approx(np.sqrt(2), abs=1e-12)
        assert rep.rhs == pytest.approx(2.0, abs=1e-12)

    def test_random_sweep_never_violates(self):
        for trial in range(60):
            rng = generator(2, "l2sweep", trial)
            n = int(rng.integers(1, 4))
            t = int(rng.integers(0, 7))
            prog = random_program(n, int(rng.integers(0, 5)), t, rng)
            f = sample_uniform_oracle(n, rng)
            a = BitWord(n, int(rng.integers(0, 1 << n)))
            y = BitWord(n, int(rng.integers(0, 1 << n)))
            rep = lemma2_check(prog, f, a, y, BitWord.zero(n))
            assert rep.slack >= -1e-9


class TestBuildHardOracle:
    def test_regime_enforced(self):
        prog = random_program(2, 2, 2, 0)
        with pytest.raises(ValueError):
            build_hard_oracle(prog, 2, 1.0, 0)  # needs t = T-1 = 1

    def test_threshold_overflow_refused(self):
        with pytest.raises(ValueError, match="overflows"):
            build_hard_oracle(random_program(2, 2, 1, 0), 2, -3000.0, 0)

    def test_zero_round_trace(self):
        # T = 1: threshold is 1, so only a full-mass word can be struck
        prog = concentrated_program(3, 0)
        trace = build_hard_oracle(prog, 1, 1.0, 7)
        assert trace.succeeded and trace.t == 0
        assert len(trace.steps) == 1
        assert trace.steps[0].pivot == w("000")
        assert trace.steps[0].candidates.sum() == 8  # step 0's set holds every word
        # the input word was struck
        assert trace.final_candidates.sum() == 7 and not trace.final_candidates[0]
        assert trace.final_value is not None

    def test_concentrated_program_always_succeeds(self):
        # mass pinned to the input word: it is the only word ever struck
        for T in (2, 3, 4):
            prog = concentrated_program(3, T - 1)
            trace = build_hard_oracle(prog, T, 1.0, 21 + T)
            assert trace.succeeded
            for s in trace.steps[1:]:
                assert s.candidates.sum() == 7 and not s.candidates[w("000").value]
            assert trace.steps[-1].pivot != w("000")

    def test_uniform_mass_exhausts(self):
        # two words of mass 0.5 against threshold 2**-5.5: both struck
        prog = uniform_address_program(1, 1)
        trace = build_hard_oracle(prog, 2, 1.0, 5)
        assert not trace.succeeded
        assert trace.exhausted_at == 1
        assert trace.final_value is None

    def test_pivot_light_in_every_state(self):
        # the last pivot's mass stays below the threshold in all recorded
        # states, including the initial one
        hits = 0
        for trial in range(25):
            rng = generator(3, "pivot", trial)
            n, T = 5, 2
            prog = random_program(n, 2, T - 1, rng)
            trace = build_hard_oracle(prog, T, 1.0, rng)
            if not trace.succeeded:
                continue
            hits += 1
            x_t = trace.steps[-1].pivot
            for step in trace.steps:
                assert step.masses[x_t.value] < trace.threshold
            assert trace.pivot_mass_max < trace.threshold
        assert hits >= 10

    def test_candidate_sets_shrink(self):
        prog = truncate_after_query(classical_emulation_program(3, 3), 2)
        trace = build_hard_oracle(prog, 3, 1.0, 9)
        assert trace.succeeded
        sets = [s.candidates for s in trace.steps[1:]]
        for a, b in zip(sets, sets[1:]):
            assert not (b & ~a).any()
        for s in trace.steps[1:]:
            assert s.candidates[s.pivot.value]

    @pytest.mark.parametrize("T", [1, 2, 3])
    def test_candidate_sets_are_read_only_masks_of_the_light_words(self, T):
        # step i's set is the words below the threshold in every state 0..i;
        # step 0's holds every word, and the final set is the last step's
        prog = truncate_after_query(classical_emulation_program(3, 3), T - 1)
        trace = build_hard_oracle(prog, T, 1.0, 9)
        assert trace.succeeded
        light = np.ones(8, dtype=bool)
        for i, s in enumerate(trace.steps):
            assert s.candidates.dtype == bool and s.candidates.shape == (8,)
            assert not s.candidates.flags.writeable
            light &= s.masses < trace.threshold
            assert np.array_equal(s.candidates, light if i else np.ones(8, dtype=bool))
        assert not trace.final_candidates.flags.writeable
        assert np.array_equal(trace.final_candidates, light)

    def test_deterministic(self):
        prog = truncate_after_query(classical_emulation_program(3, 3), 2)
        t1 = build_hard_oracle(prog, 3, 1.0, 13)
        t2 = build_hard_oracle(prog, 3, 1.0, 13)
        assert [s.pivot for s in t1.steps] == [s.pivot for s in t2.steps]
        assert t1.final_oracle == t2.final_oracle
        assert t1.final_value == t2.final_value

    def test_oracle_updates_at_previous_pivot(self):
        prog = truncate_after_query(classical_emulation_program(3, 4), 3)
        trace = build_hard_oracle(prog, 4, 1.0, 17)
        assert trace.succeeded
        for i in range(1, len(trace.steps)):
            prev, cur = trace.steps[i - 1], trace.steps[i]
            changed = np.nonzero(prev.oracle.values != cur.oracle.values)[0]
            assert set(changed) <= {prev.pivot.value}
            assert cur.oracle(prev.pivot) == cur.pivot


class TestAdversaryBoundReport:
    def test_zero_round_report(self):
        prog = concentrated_program(3, 0)
        trace = build_hard_oracle(prog, 1, 1.0, 7)
        rep = adversary_bound_report(prog, trace, 1, 1.0)
        assert rep.deltas == [] and rep.drifts == [0.0]
        assert rep.final_gap == pytest.approx(0.0, abs=1e-12)
        assert not rep.violations()

    def test_exhausted_trace_rejected(self):
        prog = uniform_address_program(1, 1)
        trace = build_hard_oracle(prog, 2, 1.0, 5)
        with pytest.raises(TraceNotSucceededError):
            adversary_bound_report(prog, trace, 2, 1.0)

    def test_first_drift_equals_first_delta(self):
        prog = truncate_after_query(classical_emulation_program(3, 3), 2)
        trace = build_hard_oracle(prog, 3, 1.0, 19)
        rep = adversary_bound_report(prog, trace, 3, 1.0)
        assert rep.drifts[1] == pytest.approx(rep.deltas[0], abs=1e-12)

    def test_emulation_checked_rows_pass(self):
        prog = truncate_after_query(classical_emulation_program(3, 3), 2)
        trace = build_hard_oracle(prog, 3, 1.0, 23)
        rep = adversary_bound_report(prog, trace, 3, 1.0)
        assert rep.violations() == []
        assert rep.final_gap <= rep.chain_rhs + 1e-9

    def test_concentrated_first_round_breaks_premise(self):
        """Documented defect of the rate-bound chain: a program whose first
        query concentrates on the input word detects the construction's very
        first redirection, so the measured first-round change is sqrt(2) and
        the alpha-rate bound cannot hold there.  The report must record the
        premise failure and leave those rows unchecked rather than hide them.
        """
        prog = truncate_after_query(classical_emulation_program(3, 3), 2)
        trace = build_hard_oracle(prog, 3, 1.0, 29)
        rep = adversary_bound_report(prog, trace, 3, 1.0)
        assert rep.premises[0] is False
        assert rep.premise_masses[0] == pytest.approx(1.0, abs=1e-9)
        assert rep.deltas[0] == pytest.approx(np.sqrt(2), abs=1e-9)
        first = [r for r in rep.rows if r.context == "round_change[i=0]"][0]
        assert not first.checked and not first.holds()
        # rounds after the first satisfy their premise by construction
        assert all(rep.premises[1:])

    def test_random_sweep_no_checked_violations(self):
        succeeded = 0
        for trial in range(20):
            rng = generator(4, "sweep", trial)
            n = int(rng.integers(4, 7))
            T = int(rng.integers(2, 5))
            prog = random_program(n, 2, T - 1, rng)
            trace = build_hard_oracle(prog, T, 1.0, rng)
            if not trace.succeeded:
                continue
            succeeded += 1
            rep = adversary_bound_report(prog, trace, T, 1.0)
            assert rep.violations() == []
        assert succeeded >= 8

    def test_program_of_another_layout_rejected(self):
        prog = concentrated_program(2, 2)
        trace = build_hard_oracle(prog, 3, 1.0, 31)
        assert trace.succeeded
        with pytest.raises(ValueError):
            adversary_bound_report(concentrated_program(2, 2, work=2), trace, 3, 1.0)

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_program_of_another_length_rejected(self, rounds):
        trace = build_hard_oracle(concentrated_program(2, 2), 3, 1.0, 31)
        assert trace.succeeded
        with pytest.raises(ValueError):
            adversary_bound_report(concentrated_program(2, rounds), trace, 3, 1.0)

    @pytest.mark.parametrize("T, epsilon", [(50, 1.0), (3, 7.0)])
    def test_T_or_epsilon_of_another_trace_rejected(self, T, epsilon):
        prog = concentrated_program(2, 2)
        trace = build_hard_oracle(prog, 3, 1.0, 31)
        assert trace.succeeded
        with pytest.raises(ValueError):
            adversary_bound_report(prog, trace, T, epsilon)


class TestQueryMassMatrix:
    def test_never_queried_orbit_gives_zero_matrix(self):
        # input 11 under the identity oracle orbits at 11 forever, while the
        # program only ever queries address 00
        ident = make_oracle(2, [w("00"), w("01"), w("10"), w("11")])
        prog = concentrated_program(2, 2, work=2)
        m = query_mass_matrix(prog, ident, 3, w("11"))
        assert np.all(m.entries == 0.0)
        assert np.all(m.col_sums == 0.0)

    def test_emulation_diagonal(self):
        prog = classical_emulation_program(2, 3)
        four_cycle = make_oracle(2, [w("01"), w("10"), w("11"), w("00")])
        m = query_mass_matrix(prog, four_cycle, 3, w("00"))
        assert m.distinct_orbit
        assert np.allclose(m.entries, np.eye(3), atol=1e-9)
        assert np.allclose(m.col_sums, [1, 1, 1], atol=1e-9)
        assert np.allclose(m.row_sums, 1.0, atol=1e-9)

    def test_row_sums_bounded_on_random_pairs(self):
        for trial in range(100):
            rng = generator(5, "rows", trial)
            n = int(rng.integers(2, 5))
            t = int(rng.integers(1, 4))
            prog = random_program(n, 2, t, rng)
            f = sample_uniform_oracle(n, rng)
            m = query_mass_matrix(prog, f, int(rng.integers(1, 9)), BitWord.zero(n))
            assert np.all(m.row_sums <= 1 + 1e-9)

    def test_duplicate_orbit_columns_flagged(self):
        ident = make_oracle(2, [w("00"), w("01"), w("10"), w("11")])
        prog = random_program(2, 2, 2, 0)
        m = query_mass_matrix(prog, ident, 4, w("01"))
        assert not m.distinct_orbit  # fixed point repeats the same word

    @staticmethod
    def t_column_table(prog, f, T, x):
        """The mass matrix with one column per orbit step, T of them."""
        t, words = prog.query_count, orbit(f, x, T)
        values = np.array([v.value for v in words])
        entries, row_sums = np.zeros((t, T)), np.zeros(t)
        for i, state in enumerate(run(prog, f, x).states[:t]):
            masses = query_masses(state)
            entries[i] = masses[values]
            row_sums[i] = masses[np.unique(values)].sum()
        return entries, row_sums, entries.sum(axis=0), tuple(words)

    @pytest.mark.parametrize("trial", range(12))
    def test_views_match_the_t_column_table(self, trial):
        # fixed points, short cycles and distinct orbits, up to 12 rounds:
        # every view and report field has the T-column table's bits
        rng = generator(5, "t-columns", trial)
        n, t = int(rng.integers(1, 4)), int(rng.integers(1, 13))
        prog = random_program(n, n, t, rng)  # a nonzero input needs n work qubits
        x = BitWord(n, int(rng.integers(0, 1 << n)))
        f = sample_uniform_oracle(n, rng)
        if trial % 3 == 0:
            f = mutate(f, x, x)
        for T in (1, 2, 3, 1 << n, (1 << n) + 1, 40):
            entries, row_sums, col_sums, words = self.t_column_table(prog, f, T, x)
            m = query_mass_matrix(prog, f, T, x)
            assert m.entries.tobytes() == entries.tobytes()
            assert m.row_sums.tobytes() == row_sums.tobytes()
            assert m.col_sums.tobytes() == col_sums.tobytes()
            assert m.orbit_words == words and m.distinct_orbit == (len(set(words)) == T)
            j = int(np.argmin(col_sums))
            rep = pigeonhole_mutation_check(prog, f, T, x, 7)
            assert rep.extra["j_star"] == j and rep.extra["mutated_word"] == str(words[j])
            assert rep.extra["column_sum"] == col_sums[j]
            assert rep.extra["per_round_rhs"] == 2.0 * float(np.sqrt(entries[:, j]).sum())

    def test_long_orbit_holds_nothing_orbit_sized(self):
        # T = 10**6 steps on 4 words: a T-column table alone is 8 MB
        rng = generator(5, "long-orbit", 0)
        prog = random_program(2, 0, 2, rng)
        f = sample_uniform_oracle(2, rng)
        tracemalloc.start()
        try:
            m = query_mass_matrix(prog, f, 10 ** 6, BitWord.zero(2))
            pigeonhole_mutation_check(prog, f, 10 ** 6, BitWord.zero(2), 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20, peak
        assert m.entries.shape == (2, 10 ** 6)


class TestPigeonholeMutation:
    def test_zero_column_means_zero_gap(self):
        ident = make_oracle(2, [w("00"), w("01"), w("10"), w("11")])
        prog = concentrated_program(2, 2, work=2)
        rep = pigeonhole_mutation_check(prog, ident, 3, w("11"), 1)
        assert rep.extra["column_sum"] == 0.0
        assert rep.lhs <= 1e-9

    def test_emulation_hits_the_bound_with_equality(self):
        prog = classical_emulation_program(2, 3)
        four_cycle = make_oracle(2, [w("01"), w("10"), w("11"), w("00")])
        rep = pigeonhole_mutation_check(prog, four_cycle, 3, w("00"), 2)
        assert rep.extra["j_star"] == 0      # smallest index among ties
        assert rep.extra["column_sum"] == pytest.approx(1.0, abs=1e-9)
        assert rep.extra["column_limit"] == pytest.approx(1.0)
        assert rep.holds()

    def test_sqrtT_regime_sweep(self):
        # t*t <= T/4: the gap respects both the column bound and 2t/sqrt(T)
        for trial in range(40):
            rng = generator(6, "sqrtT", trial)
            T, t, n = 16, 2, 6
            prog = random_program(n, 2, t, rng)
            f = sample_uniform_oracle(n, rng)
            rep = pigeonhole_mutation_check(prog, f, T, BitWord.zero(n), rng)
            assert rep.holds()
            assert rep.extra["column_sum"] <= t / T + 1e-9
            assert rep.lhs <= rep.extra["sqrtT_rhs"] + 1e-9

    def test_result_usually_changes(self):
        changed = 0
        for trial in range(20):
            rng = generator(7, "changed", trial)
            prog = random_program(5, 2, 2, rng)
            f = sample_uniform_oracle(5, rng)
            rep = pigeonhole_mutation_check(prog, f, 16, BitWord.zero(5), rng)
            changed += bool(rep.extra["result_changed"])
        assert changed >= 10


class TestGapReport:
    def test_slack_and_vacuous(self):
        r = GapReport("x", 1.0, 3.0)
        assert r.slack == 2.0 and r.vacuous and r.holds()
        r2 = GapReport("x", 1.0, 0.5)
        assert not r2.holds() and not r2.vacuous


def qsim_round(state, gates, f):
    """One round stepped gate by gate on the full vector."""
    state = apply_query(state, f)
    for g in gates:
        state = apply_local_unitary(state, g)
    return state


def reference_trace_states(prog, trace):
    """The trace's chain chi_0..chi_t, each round under that step's oracle,
    stepped from the input's amplitudes, so never on the index path."""
    zero = BitWord.zero(prog.layout.query_width)
    state = StateVector(prog.layout, initial_state(prog.layout, zero).amplitudes)
    for g in prog.prelude:
        state = apply_local_unitary(state, g)
    states = [state]
    for i in range(trace.t):
        states.append(qsim_round(states[-1], prog.rounds[i], trace.steps[i].oracle))
    return states


def adversary_program(family, n, T, seed):
    if family == "classical-emulation":  # T queries of its own: build it one short
        return build_program(family, n, T - 1, None, 2, seed)
    return build_program(family, n, T, T - 1, 2, seed)


# (n, T, seeds): layouts of at most 18 qubits
ADVERSARY_CASES = [(1, 2, 3), (2, 2, 3), (2, 3, 3), (2, 4, 2), (3, 3, 2)]


def chosen_hard_oracle(prog, T, epsilon, rng):
    """The construction's draws stepped round by round, each pivot and the
    final value drawn with `rng.choice` over the surviving words: the pivots,
    the oracles, the final value (None if a set emptied) and the emptying step."""
    n = prog.layout.query_width
    threshold = float(T) ** -(5.0 + epsilon / 2.0)
    oracles, pivots = [sample_uniform_oracle(n, rng)], [0]
    state = qsim.apply_round(initial_state(prog.layout, BitWord.zero(n)), None, prog.blocks[0])
    available = query_masses(state) < threshold
    for i, block in enumerate(prog.blocks[1:]):
        state = qsim.apply_round(state, oracles[-1], block)
        available &= query_masses(state) < threshold
        if not available.any():
            return pivots, oracles, None, i + 1
        pivots.append(int(rng.choice(np.nonzero(available)[0])))
        oracles.append(mutate(oracles[-1], BitWord(n, pivots[-2]), BitWord(n, pivots[-1])))
    survivors = np.nonzero(available)[0]
    choices = survivors[survivors != oracles[-1].values[pivots[-1]]]
    if len(choices) == 0:
        return pivots, oracles, None, len(prog.blocks)
    return pivots, oracles, int(rng.choice(choices)), None


class TestAdversaryDrawsAsChoice:
    """`build_hard_oracle` draws each word as `words[rng.integers(len(words))]`;
    on this numpy that is the value `rng.choice(words)` draws, leaving the
    stream in the same place, so every trace is the one drawn with choice."""

    @pytest.mark.parametrize("family", ["random", "truncated-emulation"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_traces_equal_the_choice_reference(self, family, n):
        outcomes = set()
        for T in (2, 3):
            for seed in range(24 if n < 4 else 8):
                prog = adversary_program(family, n, T, generator(97, family, n * 100 + seed))
                got_rng, want_rng = (generator(98, family, n * 100 + T * 10 + seed)
                                     for _ in range(2))
                trace = build_hard_oracle(prog, T, 1.0, got_rng)
                pivots, oracles, final, exhausted = chosen_hard_oracle(prog, T, 1.0, want_rng)
                assert [s.pivot.value for s in trace.steps] == pivots
                assert [s.oracle for s in trace.steps] == oracles
                assert trace.exhausted_at == exhausted
                assert (None if trace.final_value is None else trace.final_value.value) == final
                assert got_rng.random() == want_rng.random()  # the same draws consumed
                outcomes.add(trace.succeeded)
        assert True in outcomes


class TestAdversaryChainAgainstQsim:
    """The construction and the bound report step their chains with the
    programs primitive; each value must equal a reference stepped with
    qsim bit for bit."""

    @pytest.mark.parametrize("family", ["classical-emulation", "truncated-emulation",
                                        "concentrated", "random"])
    def test_trace_and_report_match(self, family):
        reports = 0
        for n, T, seeds in ADVERSARY_CASES:
            for seed in range(seeds):
                prog = adversary_program(family, n, T, generator(41, family, seed))
                assert prog.layout.total <= 18
                trace = build_hard_oracle(prog, T, 1.0, generator(42, family, seed))
                ref = reference_trace_states(prog, trace)
                assert len(trace.steps) == len(ref)
                for step, want in zip(trace.steps, ref):
                    assert np.array_equal(step.state.amplitudes, want.amplitudes)
                    assert np.array_equal(step.masses, query_masses(want))
                if trace.succeeded:
                    assert_report_matches(prog, trace, ref, T)
                    reports += 1
        assert reports >= 5


def dense_rule_distance(a, b):
    """The distance rule stated on the dense amplitudes of a - b: each
    address word's squares added in flat index order, then the words summed."""
    d = a.amplitudes - b.amplitudes
    squares = (d.real ** 2 + d.imag ** 2).reshape(-1, 1 << a.layout.query_width)
    words = np.zeros(squares.shape[1])
    for row in squares:
        words += row
    return float(np.sqrt(words.sum()))


def assert_report_matches(prog, trace, ref, T):
    t = trace.t
    rounds = prog.rounds
    f_final = trace.final_oracle
    x_t = trace.steps[-1].pivot
    # reference deltas: round i under both oracles from the same state
    deltas = [dense_rule_distance(qsim_round(ref[i], rounds[i], trace.steps[i].oracle),
                                  qsim_round(ref[i], rounds[i], f_final)) for i in range(t)]
    primed = [ref[0]]
    for i in range(t):
        primed.append(qsim_round(primed[-1], rounds[i], f_final))
    fresh = ref[0]
    f_fresh = mutate(f_final, x_t, trace.final_value)
    for i in range(t):
        fresh = qsim_round(fresh, rounds[i], f_fresh)

    rep = adversary_bound_report(prog, trace, T, 1.0)
    assert rep.deltas == deltas
    assert rep.drifts == [l2_distance(a, b) for a, b in zip(ref, primed)]
    assert rep.pivot_roots_primed == [float(np.sqrt(query_mass(p, x_t))) for p in primed]
    assert rep.final_gap == l2_distance(primed[-1], fresh)


def recorded_calls(monkeypatch, *names):
    """The positional arguments of every later call to kernels.<name>, for
    each of the names, in one list."""
    calls = []
    for name in names:
        def counted(*args, real=getattr(kernels, name)):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(kernels, name, counted)
    return calls


def carries(state, f, g):
    """Whether a nonzero amplitude of the state sits on a word where f and g
    differ: only then can a round under g leave it other than under f."""
    return bool(qsim.occupied_words(state)[f.values != g.values].any())


def predicted_report_queries(prog, trace):
    """3t - 1 query calls less the reused steps.  A swapped step is reused
    when its state carries no word where its oracle and the final one
    differ; the fixed chain's step is the swapped step while the chain is
    the trace's; the fresh chain is the fixed one until that carries x_t,
    and from there on is stepped from the last trace state the fixed chain
    still was."""
    steps, f_final, x_t = trace.steps, trace.final_oracle, trace.steps[-1].pivot
    queries, last_on_trace, fresh_from, primed = 0, 0, None, steps[0].state
    for i, step in enumerate(steps[:-1]):
        on_trace = primed is step.state
        if on_trace:
            last_on_trace = i
        if fresh_from is None and qsim.occupied_words(primed)[x_t.value]:
            fresh_from = last_on_trace
        reused = not carries(step.state, step.oracle, f_final)
        queries += (not reused) + (not on_trace)
        if on_trace and reused:
            primed = steps[i + 1].state
        else:
            primed = qsim.apply_round(primed, f_final, prog.blocks[i + 1])
    return queries + (0 if fresh_from is None else trace.t - fresh_from)


class TestEachChainStateOnce:
    """chi_0 makes no query, so a mutated-oracle run starts from the f-run's
    chi_0, and a round under g from a state that carries no word where g
    and the known chain's oracle differ is that chain's next state: no chain
    state is stepped twice, and none is stepped when it is already known.
    Gates and queries are counted on the dense and the support kernels
    alike; each test has one case where nothing can be reused (the full
    counts) and one where something is."""

    @pytest.mark.parametrize("check", ["lemma2", "pigeonhole"])
    def test_prelude_gates_applied_once(self, check, monkeypatch):
        rng = generator(67, "once", 0)
        spread = random_program(3, 2, 3, rng)  # Haar gates: every one runs a dense kernel
        f = sample_uniform_oracle(3, rng)
        # round 1 spreads the address 000 over 0x0, so a lemma2 g-run parts
        # at chi_2; the orbit of 000 under f_quiet is 000 100 101 110
        quiet = address_program(3, 3, generator(67, "quiet", 1), quiet=2)
        values = f.values.copy()
        values[[0, 4, 5]] = 4, 5, 6
        f_quiet = OracleTable(3, values)
        for prog, f, full in ((spread, f, True), (quiet, f_quiet, False)):
            calls = recorded_calls(monkeypatch, "apply_matrix_inplace", "support_gate")
            if check == "lemma2":
                lemma2_check(prog, f, w("010"), w("110"), w("000"))
                g = mutate(f, w("010"), w("110"))
            else:
                word = w(pigeonhole_mutation_check(prog, f, 4, w("000"), rng).extra["mutated_word"])
                g = mutate(f, word, BitWord(3, int(f.values[word.value]) ^ 1))  # differs on word
            monkeypatch.undo()
            pre_query = run(prog, f, w("000")).states[:-1]
            parted = [carries(s, f, g) for s in pre_query]
            if check == "lemma2":  # the g-run parts at the first state on a changed word
                twice = [any(parted[:i + 1]) for i in range(prog.query_count)]
            else:  # the g-run is stepped from chi_0, or is the f-run
                twice = [any(parted)] * prog.query_count
            assert all(twice) if full else not all(twice)
            applied = [args[3] for args in calls]
            for times, gates in ((1, prog.prelude),
                                 *((1 + more, r) for more, r in zip(twice, prog.rounds))):
                for u in gates:
                    assert sum(m is u.matrix for m in applied) == times

    @pytest.mark.parametrize("t", [1, 3])
    def test_report_makes_3t_minus_1_queries(self, t, monkeypatch):
        # nothing reused: every state carries every word, each but 0 lightly
        rng = generator(67, "report-full", t)
        lay = QubitLayout(2, 5)
        tilt = [[np.cos(0.01), -np.sin(0.01)], [np.sin(0.01), np.cos(0.01)]]
        off_address = (0, 1, 7, 8, 9, 10, 11)
        full = QueryProgram(lay, tuple(LocalUnitary((p,), tilt) for p in lay.address_positions),
                            tuple((random_gate(tuple(rng.choice(off_address, 2, replace=False)),
                                               rng),) for _ in range(t)), (0,))
        for seed in range(20):  # the oracle of no step may stay the final one
            trace = build_hard_oracle(full, t + 1, 1.0, generator(67, "full", seed))
            if trace.succeeded and predicted_report_queries(full, trace) == 3 * t - 1:
                break
        cases = [(full, trace, 3 * t - 1)]
        for seed in range(20):
            rng = generator(67, "report-queries", seed)
            prog = random_program(5, 2, t, rng)
            trace = build_hard_oracle(prog, t + 1, 1.0, rng)
            if trace.succeeded:
                break
        cases.append((prog, trace, predicted_report_queries(prog, trace)))
        assert cases[1][2] < 3 * t - 1  # something is reused
        for prog, trace, want in cases:
            assert trace.succeeded
            calls = recorded_calls(monkeypatch, "apply_query", "support_query")
            adversary_bound_report(prog, trace, t + 1, 1.0)
            monkeypatch.undo()
            assert len(calls) == want


def stepped(prog, g, state):
    """The final state of the chain from chi_0 = state, every round stepped
    under g with apply_round."""
    for block in prog.blocks[1:]:
        state = qsim.apply_round(state, g, block)
    return state


def stepped_lemma2(prog, f, a, y, x, states=None):
    """lemma2_check, the g-run stepped round by round; states: the f-run's."""
    states = states or run(prog, f, x).states
    g = mutate(f, a, y)
    roots = sum(np.sqrt(query_mass(s, a)) for s in states[:-1])
    return GapReport("hybrid", l2_distance(states[-1], stepped(prog, g, states[0])),
                     0.0 if g == f else 2.0 * roots,
                     extra={"mutated_word": str(a), "new_value": str(y)})


def stepped_pigeonhole(prog, f, T, x, seed):
    t, states = prog.query_count, run(prog, f, x).states
    m = query_mass_matrix(prog, f, T, x)
    j = int(np.argmin(m.col_sums))
    word = m.orbit_words[j]
    others = np.setdiff1d(np.arange(1 << f.width), [int(f.values[word.value])])
    g = mutate(f, word, BitWord(f.width, int(as_generator(seed).choice(others))))
    per_round = 2.0 * float(np.sqrt(m.entries[:, j]).sum())
    cauchy = 2.0 * float(np.sqrt(t * m.col_sums[j]))
    return GapReport("orbit_mutation", l2_distance(states[-1], stepped(prog, g, states[0])),
                     min(per_round, cauchy), extra={
                         "j_star": j, "column_sum": float(m.col_sums[j]), "column_limit": t / T,
                         "per_round_rhs": per_round, "cauchy_rhs": cauchy,
                         "sqrtT_rhs": 2.0 * t / np.sqrt(T),
                         "max_row_sum": float(m.row_sums.max()) if t else 0.0,
                         "distinct_orbit": m.distinct_orbit,
                         "result_changed": iterate(g, x, T) != iterate(f, x, T),
                         "mutated_word": str(word)})


def stepped_report_fields(prog, trace):
    """Every measured field of the bound report, each chain stepped round
    by round with apply_round from the trace's chi_0."""
    t, steps, f_final, x_t = trace.t, trace.steps, trace.final_oracle, trace.steps[-1].pivot
    primed = [steps[0].state]
    for block in prog.blocks[1:]:
        primed.append(qsim.apply_round(primed[-1], f_final, block))
    worst = [float(s.masses[s.oracle.values != f_final.values].max(initial=0.0))
             for s in steps[:-1]]
    roots = [float(np.sqrt(query_mass(p, x_t))) for p in primed]
    return {"deltas": [l2_distance(steps[i + 1].state, qsim.apply_round(
                steps[i].state, f_final, prog.blocks[i + 1])) for i in range(t)],
            "drifts": [l2_distance(s.state, p) for s, p in zip(steps, primed)],
            "pivot_roots_primed": roots,
            "final_gap": l2_distance(primed[-1], stepped(
                prog, mutate(f_final, x_t, trace.final_value), steps[0].state)),
            "chain_rhs": 2.0 * sum(roots[:t]),
            "premise_masses": worst,
            "premises": [m < trace.threshold for m in worst]}


def address_program(n, t, rng, quiet):
    """Haar gates on 1-2 random targets, 1-2 per block, on 2 + 2n qubits.
    The first `quiet` blocks (the prelude is block 0) leave the address
    register alone; the next starts with a gate on a random address qubit,
    and the rest act anywhere."""
    lay = QubitLayout(2, n)
    off = [p for p in range(lay.total) if p not in lay.address_positions]

    def gates(positions):
        return tuple(random_gate(tuple(int(p) for p in rng.choice(
            positions, size=int(rng.integers(1, 3)), replace=False)), rng)
            for _ in range(int(rng.integers(1, 3))))

    blocks = [gates(off) if i < quiet else gates(range(lay.total)) if i > quiet else
              (random_gate((int(rng.choice(lay.address_positions)),), rng),)
              + gates(range(lay.total)) for i in range(t + 1)]
    return QueryProgram(lay, blocks[0], tuple(blocks[1:]), tuple(range(n)))


def counted_rounds(monkeypatch):
    """The number of rounds analysis steps itself from now on."""
    calls = []

    def counted(*args, real=qsim.apply_round):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(analysis, "apply_round", counted)
    return calls


class TestReuseMatchesStepping:
    """Taking the known chain's state for a round under g from a state that
    carries no changed word gives every field of every report the bits of
    stepping that round, amplitude underflow included."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("kind", ["quiet", "touched", "emulation"])
    def test_lemma2_every_oracle_and_mutation(self, n, kind, monkeypatch):
        # the emulation's address walks the orbit, so a g-run that has
        # parted from the f-run can be off the changed word again
        rng = generator(93, kind, n)
        prog = (classical_emulation_program(n, 3) if kind == "emulation"
                else address_program(n, 2, rng, quiet=0 if kind == "touched" else 2))
        x = BitWord.zero(n)
        rounds, checks = counted_rounds(monkeypatch), 0
        for f in all_oracles(n):
            states = run(prog, f, x).states
            for a, y in itertools.product(range(1 << n), repeat=2):
                if kind == "touched" and n == 2 and y != int(f.values[a]) ^ 1:
                    continue  # here one changed value per word, elsewhere every (a, y)
                args = (prog, f, BitWord(n, a), BitWord(n, y), x)
                got, want = lemma2_check(*args), stepped_lemma2(*args, states)
                assert (got, got.extra) == (want, want.extra)
                checks += 1
        assert 0 < len(rounds) < prog.query_count * checks  # some rounds stepped, some reused

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("touch", [False, True])
    def test_pigeonhole_every_oracle(self, n, touch, monkeypatch):
        rng = generator(93, "pigeonhole", 2 * n + touch)
        prog = address_program(n, 2, rng, quiet=0 if touch else 2)
        x = BitWord.zero(n)
        rounds = counted_rounds(monkeypatch)
        checks = 0
        for f in all_oracles(n):
            for T in (2, 4) if n == 1 else (3,):
                got, want = (check(prog, f, T, x, checks) for check in
                             (pigeonhole_mutation_check, stepped_pigeonhole))
                assert (got, got.extra) == (want, want.extra)
                checks += 1
        assert 0 < len(rounds) <= 2 * checks - (not touch)  # a quiet prelude reuses some

    @pytest.mark.parametrize("family", ["truncated-emulation", "concentrated", "random",
                                        "quiet", "touched"])
    def test_report_fields(self, family, monkeypatch):
        reports, rounds = [], counted_rounds(monkeypatch)
        for n, T, seeds in [(1, 2, 4), (2, 2, 4), (2, 3, 4), (2, 4, 3), (3, 3, 3), (3, 4, 2)]:
            for seed in range(seeds):
                rng = generator(94, family, n * 100 + T * 10 + seed)
                if family in ("quiet", "touched"):
                    prog = address_program(n, T - 1, rng, 0 if family == "touched" else T - 1)
                else:
                    prog = build_program(family, n, T, T - 1, 2, rng)
                trace = build_hard_oracle(prog, T, 1.0, rng)
                if not trace.succeeded:
                    continue
                built = len(rounds)
                rep = adversary_bound_report(prog, trace, T, 1.0)
                reports.append((len(rounds) - built, 3 * trace.t - 1))
                want = stepped_report_fields(prog, trace)
                assert {k: getattr(rep, k) for k in want} == want
                assert [r.lhs for r in rep.rows] == (want["deltas"] + want["drifts"][1:]
                                                     + want["pivot_roots_primed"]
                                                     + [want["final_gap"]])
        stepped, full = np.sum(reports, axis=0)  # some reports reuse a step
        assert 0 < stepped < full

    @pytest.mark.parametrize("on_trace", [True, False])
    @pytest.mark.parametrize("angle", [0.01, 1e-170])
    def test_fresh_chain_parts_at_chi_1(self, on_trace, angle, monkeypatch):
        # round 0 tilts the address lightly onto 01, so x_t = 01 can be carried
        # first by the fixed chain's chi_1.  When chi_0 carries no word where
        # f_0 and f_final differ, that chi_1 is the trace's, and the fresh
        # chain is stepped from it; otherwise from chi_0.  At 1e-170 the mass
        # on 01 reads 0.0, yet the fresh chain must be stepped
        lay = QubitLayout(2, 2)  # work 0-1, address 2-3, answer 4-5
        c, s = np.cos(angle), np.sin(angle)
        tilt = LocalUnitary((3,), [[c, -s], [s, c]])
        for seed in range(40):
            rng = generator(96, "chi_1", seed)
            prog = QueryProgram(lay, (random_gate((0,), rng),),
                                ((tilt, random_gate((0, 1), rng)), (random_gate((1, 4), rng),)),
                                (0,))
            trace = build_hard_oracle(prog, 3, 1.0, rng)
            if (trace.succeeded and on_trace != carries(trace.steps[0].state,
                                                        trace.steps[0].oracle, trace.final_oracle)
                    and qsim.occupied_words(trace.steps[1].state)[trace.steps[-1].pivot.value]):
                break
        else:
            pytest.fail("no trace whose fixed chain carries x_t first at chi_1")
        assert (query_masses(trace.steps[1].state)[trace.steps[-1].pivot.value] == 0.0) == (
            angle < 1e-162)
        want = predicted_report_queries(prog, trace)
        calls = recorded_calls(monkeypatch, "apply_query", "support_query")
        rep = adversary_bound_report(prog, trace, 3, 1.0)
        assert len(calls) == want
        fields = stepped_report_fields(prog, trace)
        assert {k: getattr(rep, k) for k in fields} == fields

    def test_an_underflowing_amplitude_is_stepped(self, monkeypatch):
        # a rotation by 1e-170 leaves the address word 1 an amplitude whose
        # square, the query mass, is 0.0: the round under g must be stepped
        lay = QubitLayout(1, 1)  # work 0, address 1, answer 2
        tiny = LocalUnitary((1,), [[1, -1e-170], [1e-170, 1]])
        rng = generator(95, "underflow", 0)
        for rotate, steps in ((True, 1), (False, 0)):
            prog = QueryProgram(lay, (tiny,) if rotate else (), ((random_gate((0, 2), rng),),),
                                (0,))
            chi_0 = run(prog, OracleTable(1, [1, 0]), w("0")).states[0]
            assert query_mass(chi_0, w("1")) == 0.0
            for f in all_oracles(1):  # every oracle, every mutation of word 1
                g_value = w(str(1 - int(f.values[1])))
                rounds = counted_rounds(monkeypatch)
                got = lemma2_check(prog, f, w("1"), g_value, w("0"))
                assert len(rounds) == steps
                want = stepped_lemma2(prog, f, w("1"), g_value, w("0"))
                assert (got, got.extra) == (want, want.extra)
                if f.values[0] == 1:  # orbit 0, 1: the empty column 1 is mutated
                    rounds = counted_rounds(monkeypatch)
                    got = pigeonhole_mutation_check(prog, f, 2, w("0"), 7)
                    assert got.extra["j_star"] == 1 and len(rounds) == steps
                    want = stepped_pigeonhole(prog, f, 2, w("0"), 7)
                    assert (got, got.extra) == (want, want.extra)
                monkeypatch.undo()


class TestStreamedChains:
    """lemma2 and the mass matrix need only running sums and the final
    state, so their peak memory does not grow with the round count."""

    @pytest.mark.parametrize("check", ["lemma2", "mass_matrix"])
    def test_peak_does_not_grow_with_rounds(self, check):
        rng = generator(61, "streamed", 0)
        prog6 = random_program(8, 2, 6, rng)  # 18 qubits: 4 MiB per state
        f = sample_uniform_oracle(8, rng)
        a, y, x = BitWord(8, 3), BitWord(8, 200), BitWord.zero(8)

        def peak(prog):
            tracemalloc.start()
            try:
                if check == "lemma2":
                    lemma2_check(prog, f, a, y, x)
                else:
                    query_mass_matrix(prog, f, 8, x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        state_bytes = 16 * prog6.layout.dim
        assert peak(prog6) <= peak(truncate_after_query(prog6, 2)) + state_bytes

    @pytest.mark.parametrize("t", [2, 4])
    @pytest.mark.parametrize("check, states", [("lemma2", 4.5), ("pigeonhole", 4.5),
                                               ("report", 4.5), ("mass_matrix", 3.75)])
    def test_peak_in_states(self, check, states, t):
        # a start state held through a whole run would break these bounds
        rng = generator(61, "peaks", 0)
        prog = random_program(8, 2, t, rng)  # 18 qubits: 4 MiB per state
        f = sample_uniform_oracle(8, rng)
        trace = build_hard_oracle(prog, t + 1, 1.0, rng)
        assert trace.succeeded
        x = BitWord.zero(8)
        run = {"lemma2": lambda: lemma2_check(prog, f, BitWord(8, 3), BitWord(8, 200), x),
               "pigeonhole": lambda: pigeonhole_mutation_check(prog, f, 8, x, 5),
               "report": lambda: adversary_bound_report(prog, trace, t + 1, 1.0),
               "mass_matrix": lambda: query_mass_matrix(prog, f, 8, x)}[check]
        run()  # a first call may import modules lazily; measure the second
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= states * 16 * prog.layout.dim


class TestBesideChainsMemory:
    """A chain run beside a known one holds no state of its own while it
    shares the known chain's: on dense 14-qubit Haar programs lemma2 holds
    at most 4 states, and the bound report at most 3 beyond its trace (a
    freshly-redirected chain stepped inside the pass would hold a fourth).
    An eighth of a state is left for blocks and small arrays."""

    STATE = 16 << 14

    def peak(self, run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_lemma2_holds_four_states(self, monkeypatch):
        monkeypatch.setattr(qsim, "SUPPORT_SHARE", 1 << 62)  # dense at the first Haar gate
        x = BitWord.zero(6)
        for seed in range(40):
            rng = generator(71, "beside-lemma2", seed)
            prog = random_program(6, 2, int(rng.integers(2, 7)), rng)  # 14 qubits
            f = sample_uniform_oracle(6, rng)
            a, y = (BitWord(6, int(v)) for v in rng.integers(0, 64, size=2))
            assert self.peak(lambda: lemma2_check(prog, f, a, y, x)) <= 4.125 * self.STATE

    def test_report_holds_three_states_beyond_its_trace(self, monkeypatch):
        monkeypatch.setattr(qsim, "SUPPORT_SHARE", 1 << 62)
        traces = 0
        for seed in range(50):
            rng = generator(71, "beside-report", seed)
            t = int(rng.integers(2, 6))
            prog = random_program(6, 2, t, rng)
            trace = build_hard_oracle(prog, t + 1, 1.0, rng)  # held before tracing
            if trace.succeeded:
                traces += 1
                report = lambda: adversary_bound_report(prog, trace, t + 1, 1.0)
                assert self.peak(report) <= 3.125 * self.STATE
        assert traces >= 40


class TestEveryFormGivesTheSameReport:
    """Whether chain states are carried as supports, go dense at the
    default threshold or go dense at their first Haar gate, every report
    field is the same, bit for bit."""

    SHARES = (1 << 62, 0)  # dense at the first Haar gate; never dense by size

    def reports(self, prog, f, T, trace_seed):
        zero = BitWord.zero(prog.layout.query_width)
        trace = build_hard_oracle(prog, prog.query_count + 1, 1.0, trace_seed)
        out = [lemma2_check(prog, f, BitWord(f.width, 1), BitWord(f.width, 2), zero),
               pigeonhole_mutation_check(prog, f, T, zero, 5),
               [s.masses.tobytes() for s in trace.steps]]
        m = query_mass_matrix(prog, f, T, zero)
        out += [m.entries.tobytes(), m.row_sums.tobytes(), m.col_sums.tobytes()]
        if trace.succeeded:
            rep = adversary_bound_report(prog, trace, prog.query_count + 1, 1.0)
            out += [rep.deltas, rep.drifts, rep.pivot_roots_primed, rep.final_gap,
                    rep.premise_masses, rep.rows]
        return [(r, r.extra) if isinstance(r, GapReport) else r for r in out]

    @pytest.mark.parametrize("n, work", [(2, 8), (3, 6), (4, 4)])  # 12 qubits
    def test_reports_match(self, n, work, monkeypatch):
        for seed in range(3):
            rng = generator(91, "forms", seed)
            prog = random_program(n, work, 3, rng)
            f = sample_uniform_oracle(n, rng)
            want = self.reports(prog, f, 8, seed)
            for share in self.SHARES:
                monkeypatch.setattr(qsim, "SUPPORT_SHARE", share)
                assert self.reports(prog, f, 8, seed) == want
            monkeypatch.undo()
