import inspect
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest

from qqlab import kernels, qsim
from qqlab.errors import (CapExceededError, DuplicateTargetError, InputError,
                          LayoutMismatchError, NonUnitaryError, TargetOutOfRangeError,
                          WidthMismatchError)
from qqlab.harness import build_program
from qqlab.oracles import (BitWord, all_oracles, iterate, make_oracle,
                           mutate, orbit, sample_uniform_oracle)
from qqlab.programs import (QueryProgram, classical_emulation_program, initial_state,
                            load_program, output_distribution, program_from_json,
                            program_to_json, random_program, run, run_final, save_program,
                            success_probability, truncate_after_query)
from qqlab.qsim import (BasisAssignment, LocalUnitary, QubitLayout, StateVector, apply_round,
                        basis_state, cnot_gate, l2_distance, query_mass, query_masses, random_gate,
                        x_gate)
from qqlab.rng import as_generator, generator


def w(s):
    return BitWord.from_string(s)


FOUR_CYCLE = make_oracle(2, [w("01"), w("10"), w("11"), w("00")])


class TestRun:
    def test_zero_rounds_empty_prelude(self):
        lay = QubitLayout(1, 1)
        prog = QueryProgram(lay, (), (), (0,))
        trace = run(prog, sample_uniform_oracle(1, 0), w("0"))
        assert len(trace.states) == 1
        init = basis_state(lay, BasisAssignment((0, 0, 0)))
        assert l2_distance(trace.states[0], init) == 0.0

    def test_single_round_writes_answer(self):
        # prelude loads the input onto the address, one gateless round:
        # the query register ends in |a, f(a)>
        n = 2
        lay = QubitLayout(n, n)
        prelude = tuple(cnot_gate(j, lay.address_positions[j]) for j in range(n))
        prog = QueryProgram(lay, prelude, ((),), tuple(range(n)))
        f = FOUR_CYCLE
        a = w("10")
        trace = run(prog, f, a)
        final = trace.states[-1]
        idx = int(np.argmax(np.abs(final.amplitudes)))
        assert abs(final.amplitudes[idx] - 1.0) < 1e-12
        bits = tuple((idx >> lay.index_bit(p)) & 1 for p in range(lay.total))
        assign = BasisAssignment(bits)
        assert assign.word_at(lay.address_positions) == a
        assert assign.word_at(lay.answer_positions) == f(a)

    def test_all_states_normalized(self):
        rng = generator(44, "norm", 0)
        for trial in range(20):
            prog = random_program(2, 3, int(rng.integers(0, 5)), rng)
            f = sample_uniform_oracle(2, rng)
            trace = run(prog, f, w("00"))
            assert len(trace.states) == prog.query_count + 1
            for s in trace.states:
                assert abs(s.norm - 1.0) < 1e-9

    def test_oracle_width_checked(self):
        prog = random_program(2, 2, 1, 0)
        with pytest.raises(WidthMismatchError):
            run(prog, sample_uniform_oracle(3, 0), w("00"))

    def test_nonzero_input_needs_working_room(self):
        prog = random_program(3, 1, 0, 0)
        with pytest.raises(LayoutMismatchError):
            run(prog, sample_uniform_oracle(3, 0), w("100"))
        run(prog, sample_uniform_oracle(3, 0), w("000"))  # all-zero input is fine


def test_initial_state_is_the_word_on_the_first_working_qubits():
    # the index form's shift equals the basic state set position by position
    for tau, n in ((0, 1), (1, 2), (2, 2), (3, 3), (5, 2), (9, 4), (16, 4)):
        lay = QubitLayout(tau, n)
        for value in range(1 << n) if tau >= n else (0,):
            bits = [0] * lay.total
            bits[:n] = BitWord(n, value).bits
            want = basis_state(lay, BasisAssignment(tuple(bits)))
            assert initial_state(lay, BitWord(n, value)).index == want.index


class TestClassicalEmulation:
    def test_four_cycle_T3(self):
        prog = classical_emulation_program(2, 3)
        assert success_probability(prog, FOUR_CYCLE, w("00"), w("11")) == pytest.approx(1.0)

    def test_identity_returns_input(self):
        ident = make_oracle(2, [w("00"), w("01"), w("10"), w("11")])
        prog = classical_emulation_program(2, 2)
        for x in range(4):
            word = BitWord(2, x)
            assert success_probability(prog, ident, word, word) == pytest.approx(1.0)

    def test_query_count_is_exactly_T(self):
        for T in (1, 2, 3):
            assert classical_emulation_program(2, T).query_count == T

    @pytest.mark.parametrize("T", [1, 2, 3, 4])
    def test_exhaustive_width_one(self, T):
        prog = classical_emulation_program(1, T)
        for f in all_oracles(1):
            for x in (w("0"), w("1")):
                target = iterate(f, x, T)
                assert success_probability(prog, f, x, target) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n,T", [(2, 3), (2, 4), (3, 3)])
    def test_random_oracles_and_inputs(self, n, T):
        rng = generator(55, "emul", n * 10 + T)
        prog = classical_emulation_program(n, T)
        for _ in range(10):
            f = sample_uniform_oracle(n, rng)
            x = BitWord(n, int(rng.integers(0, 1 << n)))
            target = iterate(f, x, T)
            assert success_probability(prog, f, x, target) == pytest.approx(1.0, abs=1e-9)

    def test_mass_concentrates_on_orbit(self):
        # pre-query state i puts all its query mass on the i-th orbit word
        n, T = 2, 4
        prog = classical_emulation_program(n, T)
        f = sample_uniform_oracle(n, 8)
        x = w("01")
        trace = run(prog, f, x)
        for i in range(T):
            expected = iterate(f, x, i)
            assert query_mass(trace.states[i], expected) == pytest.approx(1.0, abs=1e-9)

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError):
            classical_emulation_program(4, 4)  # 4*5 + 8 = 28 qubits


class TestTruncate:
    def test_full_truncation_is_identity(self):
        prog = classical_emulation_program(2, 3)
        same = truncate_after_query(prog, 3)
        assert same.rounds == prog.rounds and same.output_region == prog.output_region

    def test_zero_keeps_prelude_only(self):
        prog = classical_emulation_program(2, 3)
        empty = truncate_after_query(prog, 0)
        assert empty.query_count == 0 and empty.prelude == prog.prelude

    def test_one_fewer_query(self):
        prog = truncate_after_query(classical_emulation_program(2, 3), 2)
        assert prog.query_count == 2

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            truncate_after_query(classical_emulation_program(2, 2), 3)

    def test_truncated_output_is_periodicity_indicator(self):
        # with the final register never written, the truncated program reads
        # the zero word; success against the T-th orbit word happens exactly
        # when the orbit returns to the input -- enumerated over all 256
        # tables with no simulator involved
        prog = truncate_after_query(classical_emulation_program(2, 3), 2)
        zero = w("00")
        returns = 0
        for f in all_oracles(2):
            target = iterate(f, zero, 3)
            p = success_probability(prog, f, zero, target)
            expect = 1.0 if target == zero else 0.0
            returns += target == zero
            assert p == pytest.approx(expect, abs=1e-12)
        # independent first-return count: period 1 or exactly 3
        assert returns == 64 + 24


class TestRandomProgram:
    def test_deterministic(self):
        a = random_program(2, 3, 4, 123)
        b = random_program(2, 3, 4, 123)
        assert program_to_json(a) == program_to_json(b)

    def test_zero_rounds(self):
        assert random_program(2, 2, 0, 0).query_count == 0

    def test_gate_count_per_block(self):
        prog = random_program(3, 4, 5, 9)
        assert 1 <= len(prog.prelude) <= 4
        for rnd in prog.rounds:
            assert 1 <= len(rnd) <= 4

    @staticmethod
    def assert_per_gate_build(prog, n, tau, t, rng):
        """prog equals the program built gate by gate with `random_gate`
        from rng, in the draw order `random_program` documents."""
        layout = QubitLayout(tau, n)

        def block():
            gates = []
            for _ in range(int(rng.integers(1, 5))):
                k = int(rng.integers(1, 3))
                targets = tuple(int(x) for x in rng.choice(layout.total, size=k, replace=False))
                gates.append(random_gate(targets, rng))
            return tuple(gates)

        prelude = block()
        rounds = tuple(block() for _ in range(t))
        assert prog.query_count == t
        assert len(prog.prelude) == len(prelude)
        assert [len(r) for r in prog.rounds] == [len(r) for r in rounds]
        for got, want in zip(prog.all_gates(), (*prelude, *sum(rounds, ()))):
            assert got.targets == want.targets
            assert got.matrix.tobytes() == want.matrix.tobytes()
            assert not got.matrix.flags.writeable

    @pytest.mark.parametrize("n, tau, ts", [(2, 8, range(7)), (6, 2, [2]), (5, 2, [1])])
    def test_equals_the_per_gate_build(self, n, tau, ts):
        for t in ts:
            for seed in range(6):
                prog = random_program(n, tau, t, seed)
                self.assert_per_gate_build(prog, n, tau, t, as_generator(seed))
                a, b = generator(seed, "program", t), generator(seed, "program", t)
                self.assert_per_gate_build(random_program(n, tau, t, a), n, tau, t, b)
                assert a.random() == b.random()  # the same draws, no more


def test_repeated_or_outside_output_region_refused():
    lay = QubitLayout(2, 2)
    with pytest.raises(DuplicateTargetError):
        QueryProgram(lay, (), (), (0, 1, 0))
    with pytest.raises(TargetOutOfRangeError):
        QueryProgram(lay, (), (), (0, 6))


class TestSuccessProbability:
    def test_zero_query_constant_program(self):
        lay = QubitLayout(2, 2)
        prog = QueryProgram(lay, (), (), (0, 1))
        f = sample_uniform_oracle(2, 0)
        assert success_probability(prog, f, w("00"), w("00")) == pytest.approx(1.0)
        assert success_probability(prog, f, w("00"), w("01")) == 0.0

    def test_distribution_sums_to_one(self):
        rng = generator(2, "dist", 0)
        prog = random_program(2, 2, 2, rng)
        f = sample_uniform_oracle(2, rng)
        total = sum(success_probability(prog, f, w("00"), BitWord(2, v)) for v in range(4))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_target_width_checked(self):
        prog = classical_emulation_program(2, 2)
        with pytest.raises(WidthMismatchError):
            success_probability(prog, FOUR_CYCLE, w("00"), w("0"))


class TestOracleLocality:
    def test_unqueried_mutation_is_invisible(self):
        # if the mutated word carries no query mass in any pre-query state,
        # the final states coincide
        rng = generator(66, "local", 0)
        checked = 0
        for trial in range(30):
            prog = random_program(2, 2, 2, rng)
            f = sample_uniform_oracle(2, rng)
            trace = run(prog, f, w("00"))
            masses = sum(query_masses(trace.states[i]) for i in range(prog.query_count))
            quiet = [a for a in range(4) if masses[a] < 1e-14]
            if not quiet:
                continue
            a = BitWord(2, quiet[0])
            y = BitWord(2, (f(a).value + 1) % 4)
            final_g = run_final(prog, mutate(f, a, y), w("00"))
            assert l2_distance(trace.states[-1], final_g) < 1e-9
            checked += 1
        assert checked >= 5


class TestProgramFiles:
    def test_json_round_trip_exact(self):
        for seed in range(5):
            prog = random_program(2, 3, 3, seed)
            back = program_from_json(program_to_json(prog))
            assert back.layout == prog.layout
            assert back.output_region == prog.output_region
            assert len(back.prelude) == len(prog.prelude)
            for g1, g2 in zip(prog.all_gates(), back.all_gates()):
                assert g1.targets == g2.targets
                assert np.array_equal(g1.matrix, g2.matrix)

    def test_file_round_trip(self, tmp_path):
        prog = classical_emulation_program(2, 2)
        path = tmp_path / "prog.json"
        save_program(prog, path)
        back = load_program(path)
        assert back.query_count == prog.query_count
        assert success_probability(back, FOUR_CYCLE, w("00"), w("10")) == pytest.approx(1.0)

    def test_rejects_unknown_format(self):
        with pytest.raises(ValueError):
            program_from_json('{"format": "nope"}')

    @pytest.mark.parametrize("change, message", [
        (lambda obj: obj.pop("layout"), "malformed program file: KeyError('layout')"),
        (lambda obj: obj["prelude"][0].pop("matrix"), "malformed program file: KeyError('matrix')"),
        (lambda obj: obj["layout"].update(work_count="2"), "malformed program file: TypeError"),
        (lambda obj: obj.update(rounds=[[[1, 2]]]), "malformed program file: TypeError"),
        (lambda obj: obj["rounds"][0][0]["matrix"].pop(),
         "gate matrix must have 16 entries, got 15"),
    ], ids=["no-layout", "no-matrix", "string-width", "gate-not-an-object", "matrix-size"])
    def test_a_file_of_another_shape_is_an_input_error(self, change, message):
        obj = json.loads(program_to_json(classical_emulation_program(1, 1)))
        change(obj)
        with pytest.raises(InputError, match=re.escape(message)):
            program_from_json(json.dumps(obj))

    @pytest.mark.parametrize("text", ["[1, 2]", '"qqlab-program-v1"', "{", ""])
    def test_text_that_is_no_json_object_is_an_input_error(self, text):
        with pytest.raises(InputError, match="malformed program file"):
            program_from_json(text)

    def test_a_file_that_is_not_utf8_is_an_input_error(self, tmp_path):
        path = tmp_path / "prog.json"
        path.write_bytes(program_to_json(classical_emulation_program(1, 1)).encode()
                         .replace(b'"prelude"', b'"prel\xffude"'))
        with pytest.raises(InputError, match="UnicodeDecodeError"):
            load_program(path)

    def test_rejects_a_non_finite_matrix_entry(self):
        obj = json.loads(program_to_json(classical_emulation_program(1, 1)))
        obj["rounds"][0][0]["matrix"][0] = [float("nan"), 0.0]
        text = json.dumps(obj)
        assert "NaN" in text
        with pytest.raises(NonUnitaryError):
            program_from_json(text)

    # each of these once left the reader as a plain ValueError or built a
    # program that failed later, in `read_bits`
    def test_a_non_integer_output_position_is_an_input_error(self):
        obj = json.loads(program_to_json(classical_emulation_program(1, 1)))
        obj["output_region"] = [0.5]
        with pytest.raises(InputError, match="malformed program file: TypeError"):
            program_from_json(json.dumps(obj))

    @pytest.mark.parametrize("target", ["a", 0.5, 1.0, [0]])
    def test_a_non_integer_target_is_an_input_error(self, target):
        obj = json.loads(program_to_json(classical_emulation_program(1, 1)))
        obj["rounds"][0][0]["targets"][0] = target
        with pytest.raises(InputError, match="malformed program file: TypeError"):
            program_from_json(json.dumps(obj))

    @pytest.mark.parametrize("entry", [[1, 0, 0], [1], []])
    def test_a_matrix_entry_that_is_not_a_pair_is_an_input_error(self, entry):
        obj = json.loads(program_to_json(classical_emulation_program(1, 1)))
        obj["rounds"][0][0]["matrix"][0] = entry
        with pytest.raises(InputError, match=re.escape("must be an [re, im] pair")):
            program_from_json(json.dumps(obj))

    def test_a_bad_qubit_cap_keeps_its_own_message(self, monkeypatch):
        text = program_to_json(classical_emulation_program(1, 1))
        monkeypatch.setenv("QQLAB_QUBIT_CAP", "abc")
        with pytest.raises(InputError, match="QQLAB_QUBIT_CAP must be an integer") as info:
            program_from_json(text)
        assert "malformed program file" not in str(info.value)


def dense_chain(prog, f, x):
    """Reference chain chi_0..chi_t stepped one block at a time on the full
    vector: it starts from the input's amplitudes, so it never takes the
    index or the support path."""
    state = StateVector(prog.layout, initial_state(prog.layout, x).amplitudes)
    chain = []
    for i, block in enumerate(prog.blocks):
        state = apply_round(state, f if i else None, block)
        chain.append(state)
    return chain


def assert_matches_dense(prog, f, x):
    ref = dense_chain(prog, f, x)
    trace = run(prog, f, x)
    assert len(trace.states) == len(ref)
    for got, want in zip(trace.states, ref):
        assert np.array_equal(got.amplitudes, want.amplitudes)
    assert np.array_equal(run_final(prog, f, x).amplitudes, ref[-1].amplitudes)
    dist = output_distribution(prog, ref[-1])
    width = len(prog.output_region)
    for value in range(1 << width):
        assert success_probability(prog, f, x, BitWord(width, value)) == float(dist[value])


PERMUTATION_FAMILIES = ("classical-emulation", "truncated-emulation", "concentrated")


def assert_family_matches_dense(family, n, T, f, i):
    """The input word is nonzero wherever the layout has room for it."""
    prog = build_program(family, n, T, None, 2, 0)
    room = prog.layout.work_count >= n
    assert_matches_dense(prog, f, BitWord(n, i % (1 << n) if room else 0))


class TestBasisIndexPath:
    """Permutation-only programs run on one basis index; they must give the
    dense path's results bit for bit."""

    @pytest.mark.parametrize("family", PERMUTATION_FAMILIES)
    @pytest.mark.parametrize("n", [1, 2])
    def test_every_oracle_of_small_width(self, family, n):
        for T in (1, 2, 3, 4):
            for i, f in enumerate(all_oracles(n)):
                assert_family_matches_dense(family, n, T, f, i)

    @pytest.mark.parametrize("family", PERMUTATION_FAMILIES)
    def test_random_width_three_oracles(self, family):
        # oracle i runs at T = i % 4 + 1: a dense 21-qubit reference costs
        # about 1.5 s, too much to repeat for every T on all 50 oracles
        rng = generator(31, "basis-path", 3)
        for i in range(50):
            assert_family_matches_dense(family, 3, i % 4 + 1, sample_uniform_oracle(3, rng), i)

    @pytest.mark.parametrize("where", ["prelude", "last round"])
    def test_one_haar_gate_takes_the_dense_path(self, where):
        rng = generator(32, "basis-path", 0)
        base = classical_emulation_program(2, 3)
        haar = random_gate((0, base.layout.total - 1), rng)
        prelude, rounds = base.prelude, list(base.rounds)
        if where == "prelude":
            prelude = (haar,) + prelude
        else:
            rounds[-1] = rounds[-1] + (haar,)
        prog = QueryProgram(base.layout, prelude, rounds, base.output_region)
        for f in (FOUR_CYCLE, sample_uniform_oracle(2, rng)):
            assert_matches_dense(prog, f, w("10"))
        assert np.count_nonzero(run_final(prog, FOUR_CYCLE, w("10")).amplitudes) > 1

    @pytest.mark.parametrize("block", [0, 1, 2, 3])
    def test_index_form_up_to_the_first_dense_gate(self, block):
        # a Haar gate in the middle of block `block` (0 is the prelude), after
        # permutation gates: every earlier chain state keeps the index form
        rng = generator(33, "basis-path", block)
        base = classical_emulation_program(2, 3)
        blocks = [list(base.prelude)] + [list(r) for r in base.rounds]
        middle = len(blocks[block]) // 2
        blocks[block].insert(middle, random_gate((1, base.layout.total - 2), rng))
        prog = QueryProgram(base.layout, blocks[0], blocks[1:], base.output_region)
        for f in (FOUR_CYCLE, sample_uniform_oracle(2, rng)):
            assert_matches_dense(prog, f, w("11"))
            states = run(prog, f, w("11")).states
            assert [s.index is not None for s in states] == [i < block for i in range(4)]

    def test_input_checks_kept(self):
        prog = build_program("concentrated", 2, 3, None, 1, 0)  # one working qubit
        f = sample_uniform_oracle(2, 0)
        for call in (lambda x: run(prog, f, x), lambda x: run_final(prog, f, x),
                     lambda x: success_probability(prog, f, x, w("00"))):
            with pytest.raises(LayoutMismatchError):
                call(w("10"))
            with pytest.raises(WidthMismatchError):
                call(w("1"))
        with pytest.raises(WidthMismatchError):
            run(prog, sample_uniform_oracle(3, 0), w("00"))

    def test_cap_sized_program_allocates_no_state(self, monkeypatch):
        monkeypatch.delenv("QQLAB_QUBIT_CAP", raising=False)
        prog = classical_emulation_program(4, 3)  # 24 qubits: 256 MB per dense state
        f = sample_uniform_oracle(4, 5)
        x = BitWord.zero(4)
        target = iterate(f, x, 3)
        tracemalloc.start()
        try:
            p = success_probability(prog, f, x, target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p == 1.0
        assert peak < 1 << 20

    def test_cap_sized_run_keeps_every_state_as_its_index(self, monkeypatch):
        monkeypatch.delenv("QQLAB_QUBIT_CAP", raising=False)
        n, T = 4, 3
        prog = classical_emulation_program(n, T)  # 24 qubits: 256 MB per dense state
        f = sample_uniform_oracle(n, 6)
        x = BitWord(n, 9)
        words = [v.value for v in orbit(f, x, T + 1)]
        tracemalloc.start()
        try:
            trace = run(prog, f, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        lay = prog.layout
        for i, state in enumerate(trace.states):
            # chi_i holds orbit words 0..i in registers r_0..r_i, the rest 0,
            # and queries word i next
            for j in range(T + 1):
                reg = lay.index_bits(range(j * n, (j + 1) * n))
                assert kernels.read_bits(state.index, reg) == (words[j] if j <= i else 0)
            address = lay.index_bits(lay.address_positions)
            assert kernels.read_bits(state.index, address) == (words[i] if i < T else 0)

    def test_flip_tables_are_found_once_per_gate_when_it_is_built(self, monkeypatch):
        # and each block's composed map once per block
        calls, composed = [], []

        def counted(matrix, real=kernels.as_permutation):
            calls.append(1)
            return real(matrix)

        def counted_tables(nbits, placed, real=kernels.affine_tables):
            composed.append(1)
            return real(nbits, placed)

        monkeypatch.setattr(kernels, "as_permutation", counted)
        monkeypatch.setattr(kernels, "affine_tables", counted_tables)
        prog = classical_emulation_program(3, 3)
        assert len(calls) == len(list(prog.all_gates()))
        assert len(composed) == len(prog.blocks)
        calls.clear()
        composed.clear()
        rng = generator(33, "flip-tables", 0)
        for _ in range(17):
            f, x = sample_uniform_oracle(3, rng), BitWord(3, int(rng.integers(8)))
            assert success_probability(prog, f, x, iterate(f, x, 3)) == 1.0
        assert calls == [] and composed == []

    def test_composed_maps_of_a_cap_sized_program_hold_a_few_tens_of_kb(self, monkeypatch):
        # classical_emulation_program(4, 3), 24 qubits: 4 blocks of 3 tables
        # of 256 int64 entries, 24 KiB of entries in all
        monkeypatch.delenv("QQLAB_QUBIT_CAP", raising=False)
        tracemalloc.start()
        try:
            prog = classical_emulation_program(4, 3)
            held = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, kernels.__file__)])
        finally:
            tracemalloc.stop()
        source, first = inspect.getsourcelines(kernels.affine_tables)
        held = sum(s.size for s in held.statistics("lineno")
                   if first <= s.traceback[0].lineno < first + len(source))
        assert [len(t) for _, tables in prog.blocks for t in tables] == [256] * 12
        assert 24 << 10 <= held <= 40 << 10, held


ALL_FAMILIES = PERMUTATION_FAMILIES + ("random",)


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("from_json", [False, True])
def test_every_gate_is_placed_with_its_bits_and_flip_table(family, from_json):
    # each block entry is the gate itself on its index bits with its flip
    # table, found when the program is built (or read back from JSON); every
    # block of two or more gates of an emulation family carries its composed
    # map, and no block of one X (concentrated) or of Haar gates does
    prog = build_program(family, 3, 3, None, 2, 5)
    if from_json:
        prog = program_from_json(program_to_json(prog))
    lay = prog.layout
    assert [len(placed) for placed, _ in prog.blocks] == \
        [len(prog.prelude)] + [len(r) for r in prog.rounds]
    for (placed, tables), gates in zip(prog.blocks, (prog.prelude, *prog.rounds)):
        for entry, u in zip(placed, gates):
            bits = lay.index_bits(u.targets)
            assert entry == (bits, u, kernels.flip_table(bits, u.matrix))
            assert entry[1] is u
            assert (entry[2] is None) == (family == "random")
        composed = family.endswith("emulation") and len(gates) > 1
        assert (tables is not None) == composed
        if composed:
            assert tables == kernels.affine_tables(lay.total, placed)


_SWAP = np.eye(4)[[0, 2, 1, 3]]
_TOFFOLI = np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]]


def is_affine(perm):
    """Whether a permutation of k-bit patterns is affine over GF(2), checked
    on every pair: P[a ^ b] == P[a] ^ P[b] ^ P[0]."""
    size = len(perm)
    return all(perm[a ^ b] == perm[a] ^ perm[b] ^ perm[0] for a in range(size) for b in range(size))


def affine_gate(total, rng):
    """A random X, CNOT or SWAP on distinct random positions of a layout."""
    a, b = (int(p) for p in rng.choice(total, size=2, replace=False))
    return (x_gate(a), cnot_gate(a, b), LocalUnitary((a, b), _SWAP))[int(rng.integers(3))]


def random_layout(total, rng):
    n = int(rng.integers(1, total // 2 + 1))
    return QubitLayout(total - 2 * n, n)


def per_gate(block):
    """The same gates without their composed map: the per-gate index path."""
    return block[0], None


class TestComposedBlocks:
    """A block of two or more X, CNOT and SWAP gates steps an index-form
    state by its composed map, which must send every index where the
    per-gate path and the dense path send it; any other block keeps the
    per-gate index path."""

    @pytest.mark.parametrize("total", range(2, 15))
    def test_composed_step_equals_the_per_gate_step_on_every_index(self, total):
        # every index up to 12 qubits, 4096 random ones at 13 and 14
        rng = generator(91, "composed-step", total)
        for trial in range(8):
            lay = random_layout(total, rng)
            gates = [affine_gate(total, rng) for _ in range(int(rng.integers(2, 9)))]
            block = qsim.gate_block(lay, gates)
            assert block[1] is not None
            assert len(block[1]) == -(-total // 8)
            indices = range(lay.dim) if total <= 12 else rng.integers(0, lay.dim, size=4096)
            for index in indices:
                start = StateVector.basic(lay, int(index))
                got = apply_round(start, None, block)
                want = apply_round(start, None, per_gate(block))
                assert got.index is not None and got.index == want.index, (total, index)

    @pytest.mark.parametrize("total", [2, 5, 8, 9, 12, 14])
    def test_composed_programs_match_the_dense_chain(self, total):
        # programs of random X/CNOT/SWAP blocks, queries between them
        rng = generator(91, "composed-dense", total)
        for trial in range(4):
            lay = random_layout(total, rng)
            n = lay.query_width

            def block():
                return [affine_gate(total, rng) for _ in range(int(rng.integers(2, 7)))]

            prog = QueryProgram(lay, block(), [block() for _ in range(3)], tuple(range(n)))
            assert all(tables is not None for _, tables in prog.blocks)
            f = sample_uniform_oracle(n, rng)
            x = BitWord(n, int(rng.integers(1 << n)) if lay.work_count >= n else 0)
            assert_matches_dense(prog, f, x)
            assert all(s.index is not None for s in run(prog, f, x).states)

    @pytest.mark.parametrize("odd", ["toffoli", "non-affine", "single"])
    def test_other_blocks_keep_the_index_form_gate_by_gate(self, odd):
        # a Toffoli, a random non-affine 3-target permutation among affine
        # gates, or one gate alone: no composed map, yet the index form
        rng = generator(91, f"no-composite-{odd}")
        for trial in range(6):
            total = int(rng.integers(4, 11))
            lay = random_layout(total, rng)
            targets = [int(p) for p in rng.choice(total, size=3, replace=False)]
            if odd == "toffoli":
                gates = [affine_gate(total, rng), LocalUnitary(targets, _TOFFOLI),
                         affine_gate(total, rng)]
            elif odd == "non-affine":
                perm = rng.permutation(8)
                while is_affine(perm):
                    perm = rng.permutation(8)
                gates = [affine_gate(total, rng), LocalUnitary(targets, np.eye(8)[:, perm])]
            else:
                gates = [affine_gate(total, rng)]
            block = qsim.gate_block(lay, gates)
            assert block[1] is None
            for index in rng.integers(0, lay.dim, size=16):
                start = StateVector.basic(lay, int(index))
                got = apply_round(start, None, block)
                want = apply_round(StateVector(lay, start.amplitudes), None, block)
                assert got.index is not None
                assert np.flatnonzero(want.amplitudes).tolist() == [got.index]

    def test_affinity_is_tested_on_every_pattern(self):
        # the placement's test agrees with the pairwise definition on every
        # permutation of 2 targets and on 300 random ones of 3 and 4
        rng = generator(91, "affinity", 0)
        perms = [list(p) for p in itertools.permutations(range(4))]
        perms += [list(rng.permutation(1 << k)) for k in (3, 4) for _ in range(150)]
        perms += [[p ^ c for p in range(8)] for c in range(8)]  # X on some of 3 targets
        for perm in perms:
            k = len(perm).bit_length() - 1
            lay = QubitLayout(k + 2, 1)
            gate = LocalUnitary(range(k), np.eye(1 << k)[:, perm])
            composed = qsim.gate_block(lay, [gate, gate])[1] is not None
            assert composed == is_affine(perm), perm


def with_haar_gates(prog, rng):
    """The program with a Haar 1q gate opening the prelude and a Haar 2q gate
    closing every round, so that its chain leaves the index form at once and
    runs the family's permutation gates and queries on a support (or, past
    the threshold, dense)."""
    total = prog.layout.total

    def haar(k):
        return random_gate(tuple(int(p) for p in rng.choice(total, size=k, replace=False)), rng)

    rounds = [r + (haar(min(2, total)),) for r in prog.rounds]
    return QueryProgram(prog.layout, (haar(1),) + prog.prelude, rounds, prog.output_region)


def assert_support_matches_dense(family, n, T, f, i):
    """Returns how many chain states were held as supports."""
    prog = with_haar_gates(build_program(family, n, T, None, 6, i), generator(81, family, i))
    room = prog.layout.work_count >= n
    x = BitWord(n, i % (1 << n) if room else 0)
    ref = dense_chain(prog, f, x)
    states = run(prog, f, x).states
    assert len(states) == len(ref)
    for got, want in zip(states, ref):
        assert np.array_equal(got.amplitudes, want.amplitudes)
        assert query_masses(got).tobytes() == query_masses(want).tobytes()
    assert (output_distribution(prog, states[-1]).tobytes()
            == output_distribution(prog, ref[-1]).tobytes())
    return sum(s._support is not None for s in states)


class TestSupportPath:
    """Programs with Haar gates carry their states as supports while they
    are small; every chain state, mass and readout must equal the dense
    path's (states value for value, the rest byte for byte)."""

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    @pytest.mark.parametrize("n", [1, 2])
    def test_every_oracle_of_small_width(self, family, n):
        supports = sum(assert_support_matches_dense(family, n, T, f, i)
                       for i, f in enumerate(all_oracles(n)) for T in (1, 2, 3, 4))
        assert supports > 0

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_random_width_three_oracles(self, family):
        rng = generator(82, "support-path", 3)
        assert sum(assert_support_matches_dense(family, 3, i % 4 + 1,
                                                sample_uniform_oracle(3, rng), i)
                   for i in range(12)) > 0

    def test_wide_gates_under_every_share(self, monkeypatch):
        # random 1-4 target Haar blocks at 3-12 qubits: the chain is the same
        # whether its states go dense by the default share, at their first
        # Haar gate (1 << 62) or never by size (0)
        rng = generator(82, "wide-gates", 0)
        supports = 0
        for _ in range(24):
            total = int(rng.integers(3, 13))
            n = int(rng.integers(1, total // 2 + 1))
            layout = QubitLayout(total - 2 * n, n)

            def block():
                return tuple(random_gate(tuple(int(p) for p in rng.choice(
                    total, size=int(k), replace=False)), rng)
                    for k in rng.integers(1, min(4, total) + 1, size=int(rng.integers(1, 4))))

            prog = QueryProgram(layout, block(), [block() for _ in range(3)], tuple(range(n)))
            f = sample_uniform_oracle(n, rng)
            want = run(prog, f, BitWord.zero(n)).states
            supports += sum(s._support is not None for s in want)
            for share in (1 << 62, 0):
                monkeypatch.setattr(qsim, "SUPPORT_SHARE", share)
                for got, ref in zip(run(prog, f, BitWord.zero(n)).states, want, strict=True):
                    assert np.array_equal(got.amplitudes, ref.amplitudes)
                    assert query_masses(got).tobytes() == query_masses(ref).tobytes()
            monkeypatch.undo()
        assert supports > 0
