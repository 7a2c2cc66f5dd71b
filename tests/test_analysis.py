import tracemalloc

import numpy as np
import pytest

from qqlab.analysis import (GapReport, adversary_bound_report,
                            build_hard_oracle, lemma1_check, lemma2_check,
                            pigeonhole_mutation_check, query_mass_matrix)
from qqlab import kernels, qsim
from qqlab.errors import TraceNotSucceededError
from qqlab.harness import build_program
from qqlab.oracles import BitWord, make_oracle, mutate, sample_uniform_oracle
from qqlab.programs import (QueryProgram, classical_emulation_program, initial_state,
                            random_program, truncate_after_query)
from qqlab.qsim import (QubitLayout, StateVector, apply_local_unitary, apply_query,
                        h_gate, l2_distance, query_mass, query_masses, x_gate)
from qqlab.rng import generator


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

    def test_zero_round_trace(self):
        # T = 1: threshold is 1, so only a full-mass word can be struck
        prog = concentrated_program(3, 0)
        trace = build_hard_oracle(prog, 1, 1.0, 7)
        assert trace.succeeded and trace.t == 0
        assert len(trace.steps) == 1
        assert trace.steps[0].pivot == w("000")
        assert len(trace.final_candidates) == 7  # the input word was struck
        assert trace.final_value is not None

    def test_concentrated_program_always_succeeds(self):
        # mass pinned to the input word: it is the only word ever struck
        for T in (2, 3, 4):
            prog = concentrated_program(3, T - 1)
            trace = build_hard_oracle(prog, T, 1.0, 21 + T)
            assert trace.succeeded
            assert all(len(s.candidates) >= 7 for s in trace.steps[1:])
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
            assert b.values <= a.values
        for s in trace.steps[1:]:
            assert s.pivot in s.candidates

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


def assert_report_matches(prog, trace, ref, T):
    t = trace.t
    rounds = prog.rounds
    f_final = trace.final_oracle
    x_t = trace.steps[-1].pivot
    # reference deltas: round i under both oracles from the same state
    deltas = [float(np.linalg.norm(
        qsim_round(ref[i], rounds[i], trace.steps[i].oracle).amplitudes
        - qsim_round(ref[i], rounds[i], f_final).amplitudes)) for i in range(t)]
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


class TestEachChainStateOnce:
    """chi_0 makes no query, so a mutated-oracle run starts from the f-run's
    chi_0, and the bound report's fixed-final-oracle chain starts with the
    trace's swapped step from chi_0: no chain state is stepped twice.  Gates
    and queries are counted on the dense and the support kernels alike."""

    @pytest.mark.parametrize("check", ["lemma2", "pigeonhole"])
    def test_prelude_gates_applied_once(self, check, monkeypatch):
        rng = generator(67, "once", 0)
        prog = random_program(3, 2, 3, rng)  # Haar gates: every one runs a dense kernel
        f = sample_uniform_oracle(3, rng)
        calls = recorded_calls(monkeypatch, "apply_matrix_inplace", "support_gate")
        if check == "lemma2":
            lemma2_check(prog, f, w("010"), w("110"), w("000"))
        else:
            pigeonhole_mutation_check(prog, f, 4, w("000"), rng)
        applied = [args[3] for args in calls]
        for times, gates in ((1, prog.prelude), *((2, r) for r in prog.rounds)):
            for u in gates:
                assert sum(m is u.matrix for m in applied) == times

    @pytest.mark.parametrize("t", [1, 3])
    def test_report_makes_3t_minus_1_queries(self, t, monkeypatch):
        for seed in range(20):
            rng = generator(67, "report-queries", seed)
            prog = random_program(5, 2, t, rng)
            trace = build_hard_oracle(prog, t + 1, 1.0, rng)
            if trace.succeeded:
                break
        assert trace.succeeded
        calls = recorded_calls(monkeypatch, "apply_query", "support_query")
        adversary_bound_report(prog, trace, t + 1, 1.0)
        assert len(calls) == 3 * t - 1


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
