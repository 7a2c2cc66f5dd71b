import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqlab import kernels, qsim
from qqlab.errors import (CapExceededError, DuplicateTargetError, LayoutMismatchError,
                          NonUnitaryError, NotNormalizedError, TargetOutOfRangeError,
                          WidthMismatchError)
from qqlab.oracles import BitWord, make_oracle, mutate, sample_uniform_oracle
from qqlab.qsim import (BasisAssignment, LocalUnitary, QubitLayout, StateVector,
                        apply_local_unitary, apply_query, basis_state, cnot_gate,
                        difference_masses, h_gate, haar_unitary, l2_distance, observe,
                        oracle_distance, query_mass, query_masses, random_gate,
                        readout_distribution, state_dump, x_gate)
from qqlab.rng import generator


def w(s):
    return BitWord.from_string(s)


def dense_embedding(layout, gate):
    """Full-register matrix for a gate: built index by index from the
    definition of acting on the targets and fixing every other qubit.
    Deliberately independent of the kernel implementation."""
    K = layout.dim
    bits = [layout.index_bit(p) for p in gate.targets]
    k = len(bits)
    D = np.zeros((K, K), dtype=complex)
    for j_in in range(K):
        l_in = 0
        base = j_in
        for i, b in enumerate(bits):
            l_in |= ((j_in >> b) & 1) << (k - 1 - i)
            base &= ~(1 << b)
        for l_out in range(1 << k):
            j_out = base
            for i, b in enumerate(bits):
                if (l_out >> (k - 1 - i)) & 1:
                    j_out |= 1 << b
            D[j_out, j_in] = gate.matrix[l_out, l_in]
    return D


def random_state(layout, rng):
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


class TestLayout:
    def test_index_encoding(self):
        # address word in the low n bits, answer half next, work on top
        lay = QubitLayout(2, 2)
        assert [lay.index_bit(p) for p in lay.address_positions] == [1, 0]
        assert [lay.index_bit(p) for p in lay.answer_positions] == [3, 2]
        assert [lay.index_bit(p) for p in range(lay.work_count)] == [5, 4]

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            QubitLayout(1, 12)  # 25 qubits > default 24

    @pytest.mark.parametrize("work, width, message", [
        (0, 0, "query width must be >= 1"), (1, -1, "query width must be >= 1"),
        (-1, 2, "working qubit count must be >= 0")])
    def test_widths_must_not_be_negative(self, work, width, message):
        with pytest.raises(WidthMismatchError, match=message):
            QubitLayout(work, width)

    def test_cap_override(self, monkeypatch):
        monkeypatch.setenv("QQLAB_QUBIT_CAP", "26")
        assert QubitLayout(1, 12).total == 25

    def test_position_range(self):
        lay = QubitLayout(1, 1)
        with pytest.raises(TargetOutOfRangeError):
            lay.index_bit(3)


class TestBasisState:
    def test_all_zero_is_first_amplitude(self):
        lay = QubitLayout(1, 1)
        st_ = basis_state(lay, BasisAssignment((0, 0, 0)))
        assert st_.amplitudes[0] == 1.0 and st_.norm == 1.0

    def test_query_register_index(self):
        # tau=0, n=1, |a=1, b=0>  ->  flat index b*2 + a = 1
        lay = QubitLayout(0, 1)
        st_ = basis_state(lay, BasisAssignment((1, 0)))
        assert st_.amplitudes[1] == 1.0

    def test_assignment_mass_is_one(self):
        lay = QubitLayout(2, 2)
        assign = BasisAssignment((1, 0, 1, 1, 0, 1))
        st_ = basis_state(lay, assign)
        assert query_mass(st_, assign.word_at(lay.address_positions)) == pytest.approx(1.0)

    def test_wrong_length_rejected(self):
        with pytest.raises(LayoutMismatchError):
            basis_state(QubitLayout(1, 1), BasisAssignment((0, 0)))


class TestLocalUnitary:
    def test_non_unitary_rejected(self):
        with pytest.raises(NonUnitaryError):
            LocalUnitary((0,), np.array([[1, 0], [0, 2]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(NonUnitaryError):
            LocalUnitary((0,), [[bad, 0], [0, 1]])

    def test_duplicate_targets_rejected(self):
        with pytest.raises(DuplicateTargetError):
            LocalUnitary((1, 1), np.eye(4, dtype=complex))

    def test_stacked_check_refuses_what_the_constructor_refuses(self):
        nan = np.array([[np.nan, 0], [0, 1]], dtype=complex)
        skew = np.array([[1, 0], [0, 2]], dtype=complex)
        ok = np.eye(2, dtype=complex)
        for stack, message in (([nan, skew], "non-finite"), ([ok, skew], "fails unitarity"),
                               ([skew, ok, nan], "non-finite")):
            with pytest.raises(NonUnitaryError, match=message):
                qsim._admit(np.stack(stack))
        qsim._admit(np.stack([ok, ok]))
        for m in (nan, skew):
            with pytest.raises(NonUnitaryError):
                LocalUnitary((0,), m)

    def test_admitted_gates_keep_the_target_checks(self):
        with pytest.raises(DuplicateTargetError):
            LocalUnitary._admitted((1, 1), np.eye(4, dtype=complex))
        with pytest.raises(TargetOutOfRangeError):
            LocalUnitary._admitted((), np.eye(1, dtype=complex))
        with pytest.raises(TargetOutOfRangeError):
            LocalUnitary._admitted(tuple(range(5)), np.eye(32, dtype=complex))

    def test_target_cap(self):
        with pytest.raises(TargetOutOfRangeError):
            LocalUnitary(tuple(range(5)), np.eye(32, dtype=complex))

    def test_out_of_range_at_apply(self):
        lay = QubitLayout(0, 1)
        st_ = basis_state(lay, BasisAssignment((0, 0)))
        with pytest.raises(TargetOutOfRangeError):
            apply_local_unitary(st_, x_gate(5))


class TestApplyLocalUnitary:
    def test_x_flips_bit(self):
        lay = QubitLayout(2, 1)
        st_ = basis_state(lay, BasisAssignment((0, 0, 0, 0)))
        out = apply_local_unitary(st_, x_gate(1))
        expect = basis_state(lay, BasisAssignment((0, 1, 0, 0)))
        assert l2_distance(out, expect) == 0.0

    def test_h_twice_is_identity(self):
        lay = QubitLayout(1, 1)
        st_ = random_state(lay, generator(0, "h", 0))
        out = apply_local_unitary(apply_local_unitary(st_, h_gate(0)), h_gate(0))
        assert l2_distance(out, st_) < 1e-12

    def test_cnot_on_4_qubits_matches_dense(self):
        lay = QubitLayout(2, 1)
        gate = cnot_gate(3, 1)
        D = dense_embedding(lay, gate)
        st_ = random_state(lay, generator(0, "cnot", 0))
        out = apply_local_unitary(st_, gate)
        assert np.abs(out.amplitudes - D @ st_.amplitudes).max() < 1e-12

    # trials 0-11 draw 1-3 Haar targets; 12-15 four Haar targets and 16-17 a
    # Toffoli (a 3-target 0/1 permutation), on two more work qubits
    @pytest.mark.parametrize("trial", range(18))
    def test_matches_dense_embedding(self, trial):
        rng = generator(31, "dense", trial)
        tau = int(rng.integers(0, 5))
        n = int(rng.integers(1, 3))
        lay = QubitLayout(tau if trial < 12 else tau + 2, n)
        k = int(rng.integers(1, 4)) if trial < 12 else 4 if trial < 16 else 3
        targets = tuple(int(x) for x in rng.choice(lay.total, size=min(k, lay.total),
                                                   replace=False))
        if trial < 16:
            gate = random_gate(targets, rng)
        else:
            gate = LocalUnitary(targets, np.eye(8)[[0, 1, 2, 3, 4, 5, 7, 6]])
        st_ = random_state(lay, rng)
        out = apply_local_unitary(st_, gate)
        ref = dense_embedding(lay, gate) @ st_.amplitudes
        assert np.abs(out.amplitudes - ref).max() < 1e-12

    def test_disjoint_targets_commute(self):
        rng = generator(5, "commute", 0)
        lay = QubitLayout(3, 2)
        g1 = random_gate((0, 2), rng)
        g2 = random_gate((4, 6), rng)
        st_ = random_state(lay, rng)
        ab = apply_local_unitary(apply_local_unitary(st_, g1), g2)
        ba = apply_local_unitary(apply_local_unitary(st_, g2), g1)
        assert l2_distance(ab, ba) < 1e-12

    def test_norm_preserved_after_100_ops(self):
        rng = generator(17, "drift", 0)
        lay = QubitLayout(3, 2)
        st_ = random_state(lay, rng)
        f = sample_uniform_oracle(2, rng)
        for i in range(100):
            if i % 5 == 4:
                st_ = apply_query(st_, f)
            else:
                k = int(rng.integers(1, 3))
                targets = tuple(int(x) for x in rng.choice(lay.total, size=k, replace=False))
                st_ = apply_local_unitary(st_, random_gate(targets, rng))
        assert abs(st_.norm - 1.0) < 1e-9


class TestApplyQuery:
    def test_identity_oracle_writes_answer(self):
        # |a=1, b=0> with f = identity  ->  |1, 1>
        lay = QubitLayout(0, 1)
        f = make_oracle(1, [w("0"), w("1")])
        st_ = basis_state(lay, BasisAssignment((1, 0)))
        out = apply_query(st_, f)
        expect = basis_state(lay, BasisAssignment((1, 1)))
        assert l2_distance(out, expect) == 0.0

    def test_involution(self):
        rng = generator(3, "invol", 0)
        for trial in range(25):
            n = int(rng.integers(1, 4))
            lay = QubitLayout(int(rng.integers(0, 3)), n)
            st_ = random_state(lay, rng)
            f = sample_uniform_oracle(n, rng)
            back = apply_query(apply_query(st_, f), f)
            assert np.abs(back.amplitudes - st_.amplitudes).max() < 1e-12

    def test_not_oracle_on_superposition(self):
        # (|0,0> + |1,0>)/sqrt2 under f = NOT  ->  (|0,1> + |1,0>)/sqrt2,
        # computed by hand per basis state
        lay = QubitLayout(0, 1)
        f = make_oracle(1, [w("1"), w("0")])
        amps = np.zeros(4, complex)
        amps[0] = amps[1] = 1 / np.sqrt(2)     # indices b*2+a: |0,0>, |1,0>
        out = apply_query(StateVector(lay, amps), f)
        expect = np.zeros(4, complex)
        expect[2] = 1 / np.sqrt(2)             # |a=0, b=1>
        expect[1] = 1 / np.sqrt(2)             # |a=1, b=0>
        assert np.abs(out.amplitudes - expect).max() < 1e-12

    def test_width_mismatch(self):
        lay = QubitLayout(0, 2)
        st_ = basis_state(lay, BasisAssignment((0,) * 4))
        with pytest.raises(WidthMismatchError):
            apply_query(st_, sample_uniform_oracle(1, 0))


class TestQueryMass:
    def test_masses_sum_to_one(self):
        rng = generator(9, "mass", 0)
        lay = QubitLayout(2, 2)
        st_ = random_state(lay, rng)
        assert query_masses(st_).sum() == pytest.approx(1.0, abs=1e-9)

    def test_basis_state_concentrates(self):
        lay = QubitLayout(1, 2)
        st_ = basis_state(lay, BasisAssignment((0, 1, 0, 0, 0)))
        assert query_mass(st_, w("10")) == pytest.approx(1.0)
        assert query_mass(st_, w("01")) == 0.0

    def test_uniform_addresses(self):
        lay = QubitLayout(0, 2)
        st_ = basis_state(lay, BasisAssignment((0,) * 4))
        for p in lay.address_positions:
            st_ = apply_local_unitary(st_, h_gate(p))
        assert np.allclose(query_masses(st_), 0.25)

    def test_additivity_on_unnormalized(self):
        rng = generator(9, "mass", 1)
        lay = QubitLayout(1, 2)
        v = StateVector(lay, rng.standard_normal(lay.dim) + 1j * rng.standard_normal(lay.dim))
        total = sum(query_mass(v, BitWord(2, a)) for a in range(4))
        assert total == pytest.approx(v.norm ** 2, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_dense_mass_of_one_word_is_its_query_masses_entry(self, n):
        # random dense states and their differences, some entries cancelling
        rng = generator(9, "mass-column", n)
        for tau in sorted({0, 1, 18 - 2 * n}):
            lay = QubitLayout(tau, n)
            s1, s2 = random_state(lay, rng), random_state(lay, rng)
            shared = s2.amplitudes.copy()
            keep = rng.random(lay.dim) < 0.5
            shared[keep] = s1.amplitudes[keep]
            for v in (s1, StateVector(lay, s1.amplitudes - s2.amplitudes),
                      StateVector(lay, s1.amplitudes - shared)):
                masses = query_masses(v)
                for a in range(1 << n):
                    got = np.float64(query_mass(v, BitWord(n, a)))
                    assert got.tobytes() == masses[a].tobytes(), (n, tau, a)

    def test_dense_mass_of_one_word_holds_less_than_a_state(self):
        # 18 qubits, n = 3: the word's column is an eighth of the state
        lay = QubitLayout(12, 3)
        v = random_state(lay, generator(9, "mass-column-memory", 0))
        query_mass(v, BitWord(3, 5))
        tracemalloc.start()
        try:
            query_mass(v, BitWord(3, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < v.amplitudes.nbytes / 2, peak


class TestOracleDistance:
    def test_equal_oracles(self):
        lay = QubitLayout(0, 2)
        st_ = basis_state(lay, BasisAssignment((0,) * 4))
        f = sample_uniform_oracle(2, 0)
        assert oracle_distance(st_, f, f) == 0.0

    def test_all_mass_on_mutated_word(self):
        lay = QubitLayout(0, 2)
        st_ = basis_state(lay, BasisAssignment((1, 0, 0, 0)))  # address 10
        f = sample_uniform_oracle(2, 1)
        y = BitWord(2, (f(w("10")).value + 1) % 4)
        g = mutate(f, w("10"), y)
        assert oracle_distance(st_, f, g) == pytest.approx(1.0)

    def test_half_mass(self):
        # (|0,0> + |1,0>)/sqrt2, f identity, g mutated at 0 -> sqrt(1/2)
        lay = QubitLayout(0, 1)
        amps = np.zeros(4, complex)
        amps[0] = amps[1] = 1 / np.sqrt(2)
        st_ = StateVector(lay, amps)
        f = make_oracle(1, [w("0"), w("1")])
        g = mutate(f, w("0"), w("1"))
        assert oracle_distance(st_, f, g) == pytest.approx(np.sqrt(0.5))


class TestL2Distance:
    def test_identical(self):
        lay = QubitLayout(1, 1)
        st_ = random_state(lay, generator(0, "l2", 0))
        assert l2_distance(st_, st_) == 0.0

    def test_orthonormal_pair(self):
        lay = QubitLayout(0, 1)
        a = basis_state(lay, BasisAssignment((0, 0)))
        b = basis_state(lay, BasisAssignment((1, 0)))
        assert l2_distance(a, b) == pytest.approx(np.sqrt(2))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = generator(seed, "triangle", 0)
        lay = QubitLayout(1, 1)
        x, y, z = (random_state(lay, rng) for _ in range(3))
        assert l2_distance(x, z) <= l2_distance(x, y) + l2_distance(y, z) + 1e-12

    def test_layout_mismatch(self):
        a = basis_state(QubitLayout(0, 1), BasisAssignment((0, 0)))
        b = basis_state(QubitLayout(1, 1), BasisAssignment((0, 0, 0)))
        with pytest.raises(LayoutMismatchError):
            l2_distance(a, b)


class TestObserve:
    def test_basis_state_is_certain(self):
        lay = QubitLayout(1, 1)
        assign = BasisAssignment((1, 0, 1))
        st_ = basis_state(lay, assign)
        for seed in range(5):
            assert observe(st_, seed) == assign

    def test_deterministic_given_seed(self):
        lay = QubitLayout(1, 1)
        st_ = random_state(QubitLayout(1, 1), generator(0, "obs", 0))
        assert observe(st_, 42) == observe(st_, 42)

    def test_uniform_two_qubit_frequencies(self):
        # H on both qubits of a 2-qubit register: each outcome 1/4 +- 0.01
        lay = QubitLayout(0, 1)
        st_ = basis_state(lay, BasisAssignment((0, 0)))
        st_ = apply_local_unitary(st_, h_gate(0))
        st_ = apply_local_unitary(st_, h_gate(1))
        rng = generator(12, "obs-freq", 0)
        counts = {}
        N = 100_000
        for _ in range(N):
            bits = observe(st_, rng).bits
            counts[bits] = counts.get(bits, 0) + 1
        assert len(counts) == 4
        for c in counts.values():
            assert abs(c / N - 0.25) < 0.01

    def test_rejects_unnormalized(self):
        lay = QubitLayout(0, 1)
        v = StateVector(lay, np.array([1.0, 1.0, 0, 0], dtype=complex))
        with pytest.raises(NotNormalizedError):
            observe(v, 0)

    def test_rejects_a_nan_norm(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = np.nan
        with pytest.raises(NotNormalizedError):
            observe(StateVector(QubitLayout(1, 1), amps), 1)


class TestSingleQueryBound:
    """Changing the oracle moves a queried state by at most twice the root
    mass on the disagreement words (checked as a qsim-level sweep)."""

    def test_random_sweep(self):
        for trial in range(200):
            rng = generator(23, "l1sweep", trial)
            n = int(rng.integers(1, 4))
            lay = QubitLayout(int(rng.integers(0, 3)), n)
            st_ = random_state(lay, rng)
            f = sample_uniform_oracle(n, rng)
            g = sample_uniform_oracle(n, rng)
            lhs = l2_distance(apply_query(st_, f), apply_query(st_, g))
            assert lhs <= 2 * oracle_distance(st_, f, g) + 1e-9


class TestStateDump:
    def test_format(self):
        lay = QubitLayout(0, 1)
        st_ = basis_state(lay, BasisAssignment((1, 0)))
        assert state_dump(st_) == "1 1 0\n"

    def test_17_digits_round_trip(self):
        lay = QubitLayout(0, 1)
        st_ = random_state(lay, generator(0, "dump", 0))
        lines = state_dump(st_, nonzero_only=False).splitlines()
        rebuilt = np.zeros(lay.dim, complex)
        for ln in lines:
            i, re_, im_ = ln.split()
            rebuilt[int(i)] = complex(float(re_), float(im_))
        assert np.array_equal(rebuilt, st_.amplitudes)


class TestHaar:
    def test_haar_is_unitary(self):
        rng = generator(1, "haar", 0)
        for dim in (2, 4, 8):
            u = haar_unitary(dim, rng)
            assert np.abs(u @ u.conj().T - np.eye(dim)).max() < 1e-9

    def test_one_matrix_equals_its_stack_of_one(self):
        a, b = generator(1, "haar", 1), generator(1, "haar", 1)
        for dim in (2, 4, 16):
            z = (b.standard_normal((dim, dim)) + 1j * b.standard_normal((dim, dim))) / np.sqrt(2)
            q, r = np.linalg.qr(z)
            d = np.diagonal(r)
            assert haar_unitary(dim, a).tobytes() == (q * (d / np.abs(d))).tobytes()


def dense_twin(state):
    """The same basic state given by its amplitudes (index None)."""
    amps = np.zeros(state.layout.dim, dtype=complex)
    amps[state.index] = 1.0
    return StateVector(state.layout, amps)


class TestIndexForm:
    """A basic state held as its flat index must give every operation the
    bits of the same state held as a dense vector."""

    LAYOUTS = [(0, 1), (1, 1), (2, 2), (0, 3), (3, 3), (2, 4), (4, 5), (0, 7)]

    def cases(self):
        rng = generator(51, "index-form", 0)
        for tau, n in self.LAYOUTS:
            lay = QubitLayout(tau, n)
            assert lay.total <= 14
            for _ in range(4):
                index = int(rng.integers(lay.dim))
                yield lay, StateVector.basic(lay, index), rng

    def test_form_and_equal_amplitudes(self):
        for lay, basic, _ in self.cases():
            dense = dense_twin(basic)
            assert basic.index is not None and dense.index is None
            assert basic.norm == dense.norm == 1.0
            assert np.array_equal(basic.amplitudes, dense.amplitudes)

    def test_masses_and_distances(self):
        for lay, basic, rng in self.cases():
            dense = dense_twin(basic)
            n = lay.query_width
            masses = query_masses(basic)
            assert masses.dtype == query_masses(dense).dtype
            assert np.array_equal(masses, query_masses(dense))
            for a in range(1 << n):
                assert query_mass(basic, BitWord(n, a)) == query_mass(dense, BitWord(n, a))
            other = StateVector.basic(lay, int(rng.integers(lay.dim)))
            for v in (basic, other):
                want = l2_distance(dense, dense_twin(v))
                assert l2_distance(basic, v) == want
                assert l2_distance(basic, dense_twin(v)) == want
                assert l2_distance(dense_twin(v), basic) == want

    def test_query_gates_observe_and_dump(self):
        for lay, basic, rng in self.cases():
            dense = dense_twin(basic)
            f = sample_uniform_oracle(lay.query_width, rng)
            assert np.array_equal(apply_query(basic, f).amplitudes,
                                  apply_query(dense, f).amplitudes)
            targets = tuple(int(p) for p in rng.choice(lay.total, size=min(2, lay.total),
                                                       replace=False))
            for gate in (random_gate(targets, rng), x_gate(targets[0])):
                assert np.array_equal(apply_local_unitary(basic, gate).amplitudes,
                                      apply_local_unitary(dense, gate).amplitudes)
            assert observe(basic, 7) == observe(dense, 7)
            assert state_dump(basic) == state_dump(dense)
            assert state_dump(basic, nonzero_only=False) == state_dump(dense, nonzero_only=False)

    def test_lazy_amplitudes_are_read_only_and_kept(self):
        lay = QubitLayout(2, 2)
        basic = StateVector.basic(lay, 5)
        amps = basic.amplitudes
        assert amps is basic.amplitudes
        assert not amps.flags.writeable
        with pytest.raises(ValueError):
            amps[0] = 1.0
        # a gate never writes its input, whichever form it is in
        out = apply_local_unitary(basic, h_gate(0))
        assert np.array_equal(basic.amplitudes, dense_twin(basic).amplitudes)
        assert out.index is None and out.amplitudes.flags.writeable is False

    def test_permutations_and_queries_keep_the_index_form(self):
        for lay, basic, rng in self.cases():
            f = sample_uniform_oracle(lay.query_width, rng)
            assert apply_query(basic, f).index is not None
            assert apply_local_unitary(basic, x_gate(lay.total - 1)).index is not None
            assert apply_local_unitary(basic, h_gate(0)).index is None

    def test_difference_mass_equals_the_dense_formula(self):
        # every pair of forms, and equal indices, against query_masses of the
        # difference vector built in full, and query_mass against query_masses
        for lay, basic, rng in self.cases():
            n = lay.query_width
            dense = random_state(lay, rng)
            states = (basic, StateVector.basic(lay, int(rng.integers(lay.dim))), dense,
                      random_state(lay, rng))
            for v1 in states:
                masses = query_masses(v1)
                for a in range(1 << n):
                    assert np.float64(query_mass(v1, BitWord(n, a))).tobytes() == masses[a].tobytes()
                for v2 in states:
                    diff = StateVector(lay, v1.amplitudes - v2.amplitudes)
                    assert difference_masses(v1, v2).tobytes() == query_masses(diff).tobytes()

    def test_readout_distribution_of_the_index_form(self):
        for lay, basic, rng in self.cases():
            k = int(rng.integers(1, lay.total + 1))
            positions = tuple(int(p) for p in rng.choice(lay.total, size=k, replace=False))
            got = readout_distribution(basic, positions)
            assert got.dtype == np.float64
            assert np.array_equal(got, readout_distribution(dense_twin(basic), positions))

    def test_basis_state_is_held_as_its_index(self):
        lay = QubitLayout(1, 2)
        st_ = basis_state(lay, BasisAssignment((1, 0, 1, 1, 0)))
        assert st_.index == int(np.flatnonzero(st_.amplitudes)[0])

    def test_observe_and_dump_build_no_array(self):
        # 20 qubits: the dense array would take 16 MiB
        lay = QubitLayout(4, 8)
        basic = StateVector.basic(lay, 0xB_2C_4D)
        r1, r2 = generator(53, "observe", 0), generator(53, "observe", 0)
        tracemalloc.start()
        try:
            got = observe(basic, r1)
            dump = state_dump(basic)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20 and held < 1 << 16
        assert dump == f"{0xB_2C_4D} 1 0\n"
        assert got == observe(dense_twin(basic), r2)
        assert r1.random() == r2.random()  # one draw each, as on the dense path

    def test_index_outside_the_layout_rejected(self):
        lay = QubitLayout(0, 1)
        for index in (-1, 4):
            with pytest.raises(LayoutMismatchError):
                StateVector.basic(lay, index)


def test_constructor_leaves_the_callers_array_alone():
    b = np.zeros(4, dtype=np.complex128)
    b[0] = 1.0
    state = StateVector(QubitLayout(0, 1), b)
    b[0] = 0.5
    assert b.flags.writeable
    assert state.amplitudes[0] == 1.0 and not state.amplitudes.flags.writeable


def support_state(lay, rng, gates=3):
    """A random basic state stepped through Haar gates on 1-2 random
    targets: small enough to stay in the support form."""
    state = StateVector.basic(lay, int(rng.integers(lay.dim)))
    for _ in range(gates):
        targets = rng.choice(lay.total, size=int(rng.integers(1, 3)), replace=False)
        state = apply_local_unitary(state, random_gate(targets, rng))
    assert state.index is None and state._support is not None
    return state


def dense(state):
    """The same state given by its amplitudes: every reader takes the dense path."""
    return StateVector(state.layout, state.amplitudes)


def test_repeated_read_positions_are_refused_in_every_form():
    # one rule for a repeated position, whatever form the state is held in
    lay = QubitLayout(6, 3)
    basic = StateVector.basic(lay, 5)
    sup = support_state(lay, generator(71, "repeated-positions", 0))
    for state in (basic, sup, dense(sup)):
        for positions in ((0, 0), (1, 3, 1)):
            with pytest.raises(DuplicateTargetError):
                readout_distribution(state, positions)
    with pytest.raises(DuplicateTargetError):
        lay.index_bits(iter((2, 0, 2)))


class TestSupportForm:
    """A state carried as its support must give every reader and every step
    the bits of the same state held dense, in every pairing of forms."""

    LAYOUTS = [(6, 3), (10, 1), (4, 4), (2, 5), (0, 6)]  # 12 qubits: 4096 amplitudes

    def cases(self):
        rng = generator(71, "support-form", 0)
        for tau, n in self.LAYOUTS:
            lay = QubitLayout(tau, n)
            for gates in (1, 2, 3):
                yield lay, support_state(lay, rng, gates), rng

    def test_readers_match_the_dense_state(self):
        for lay, sup, rng in self.cases():
            ref = dense(sup)
            n = lay.query_width
            assert query_masses(sup).tobytes() == query_masses(ref).tobytes()
            for a in range(1 << n):
                word = BitWord(n, a)
                assert query_mass(sup, word) == query_mass(ref, word)
            for k in range(5):
                positions = tuple(int(p) for p in rng.choice(lay.total, size=k, replace=False))
                assert (readout_distribution(sup, positions).tobytes()
                        == readout_distribution(ref, positions).tobytes())
            for seed in range(5):
                r1, r2 = generator(72, "observe", seed), generator(72, "observe", seed)
                assert observe(sup, r1) == observe(ref, r2)
                assert r1.random() == r2.random()
            assert state_dump(sup) == state_dump(ref)
            assert sup.norm == ref.norm

    def test_mixed_pairs_match_the_dense_pair(self):
        for lay, sup, rng in self.cases():
            n = lay.query_width
            states = (sup, dense(sup), support_state(lay, rng, 2),
                      StateVector.basic(lay, int(rng.integers(lay.dim))), random_state(lay, rng))
            for v1 in states:
                masses = query_masses(v1)
                for a in range(1 << n):
                    assert np.float64(query_mass(v1, BitWord(n, a))).tobytes() == masses[a].tobytes()
                for v2 in states:
                    want = l2_distance(dense(v1), dense(v2))
                    assert np.float64(l2_distance(v1, v2)).tobytes() == np.float64(want).tobytes()
                    diff = StateVector(lay, v1.amplitudes - v2.amplitudes)
                    assert difference_masses(v1, v2).tobytes() == query_masses(diff).tobytes()

    def test_steps_match_the_dense_state(self):
        toffoli = np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]
        kept = set()  # (targets, kept) seen on the 3-4 target Haar steps
        for lay, sup, rng in self.cases():
            ref = dense(sup)
            t = tuple(int(p) for p in rng.choice(lay.total, size=4, replace=False))
            f = sample_uniform_oracle(lay.query_width, rng)
            steps = [(lambda s: apply_query(s, f), True),
                     (lambda s: apply_local_unitary(s, random_gate(t[:1], rng)), True),
                     (lambda s: apply_local_unitary(s, random_gate(t[:2], rng)), True),
                     (lambda s: apply_local_unitary(s, x_gate(t[0])), True),
                     (lambda s: apply_local_unitary(s, cnot_gate(t[1], t[2])), True),
                     (lambda s: apply_local_unitary(s, LocalUnitary(t[:3], toffoli)), True),
                     (lambda s: apply_local_unitary(s, random_gate(t[:3], rng)), 3),
                     (lambda s: apply_local_unitary(s, random_gate(t, rng)), 4)]
            for step, keeps_support in steps:
                if keeps_support in (3, 4):  # kept while the gate leaves it within the share
                    k, keeps_support = keeps_support, sup._support is not None and (
                        len(sup._support[0]) << keeps_support) * qsim.SUPPORT_SHARE <= lay.dim
                    kept.add((k, keeps_support))
                rng_state = rng.bit_generator.state
                got = step(sup)
                rng.bit_generator.state = rng_state  # the same Haar matrix for the dense step
                want = step(ref)
                assert (got._support is not None) == keeps_support
                # byte for byte: no step writes -0.0 where a support holds +0.0
                assert got.amplitudes.tobytes() == want.amplitudes.tobytes()
                assert query_masses(got).tobytes() == query_masses(want).tobytes()
                sup, ref = got, want
        assert kept == {(3, True), (3, False), (4, True), (4, False)}

    def test_a_block_crosses_the_threshold_mid_block(self, monkeypatch):
        # 10 qubits: a support goes dense before a 2q gate once it holds
        # more than 1024 / (4 * SUPPORT_SHARE) = 16 amplitudes
        lay = QubitLayout(4, 3)
        rng = generator(73, "threshold", 0)
        gates = [random_gate((2 * j, 2 * j + 1), rng) for j in range(5)]
        block = qsim.gate_block(lay, gates)
        start = StateVector.basic(lay, int(rng.integers(lay.dim)))
        calls = {"support_gate": 0, "apply_matrix_inplace": 0}
        for name in calls:
            def counted(*args, name=name, real=getattr(kernels, name)):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(kernels, name, counted)
        got = qsim.apply_round(start, None, block)
        assert calls == {"support_gate": 3, "apply_matrix_inplace": 2}
        assert got._support is None and got.index is None
        want = qsim.apply_round(dense(start), None, block)
        assert np.array_equal(got.amplitudes, want.amplitudes)


    def test_a_block_with_a_wide_gate_goes_dense_at_its_start(self, monkeypatch):
        # 12 qubits, a 3- and a 4-target Haar gate: a block that could grow
        # a support of 4 2**7-fold past 4096 / SUPPORT_SHARE = 256 amplitudes
        # runs dense from its query, though its first gate alone would not;
        # from a basic state it keeps the support
        lay = QubitLayout(6, 3)
        rng = generator(73, "block-start", 0)
        block = qsim.gate_block(lay, [random_gate((0, 4, 7), rng),
                                      random_gate((1, 2, 9, 11), rng)])
        f = sample_uniform_oracle(lay.query_width, rng)
        start = apply_local_unitary(StateVector.basic(lay, int(rng.integers(lay.dim))),
                                    random_gate((3, 10), rng))
        for state, dense_calls in ((start, 1), (StateVector.basic(lay, 5), 0)):
            calls = dict.fromkeys(["apply_query", "support_query", "support_gate",
                                   "apply_matrix_inplace"], 0)
            for name in calls:
                def counted(*args, name=name, real=getattr(kernels, name)):
                    calls[name] += 1
                    return real(*args)
                monkeypatch.setattr(kernels, name, counted)
            got = qsim.apply_round(state, f, block)
            monkeypatch.undo()
            assert calls == {"apply_query": dense_calls, "support_query": 0,
                             "support_gate": 2 - 2 * dense_calls,
                             "apply_matrix_inplace": 2 * dense_calls}
            assert (got._support is None) == bool(dense_calls)
            want = qsim.apply_round(dense(state), f, block)
            assert np.array_equal(got.amplitudes, want.amplitudes)


class TestOccupiedWords:
    """occupied_words reads amplitudes, not masses, gives every form the
    same answer, and is the exact condition for a round under g to equal
    the round under f."""

    @staticmethod
    def reference(state):
        n = state.layout.query_width
        amps = state.amplitudes
        return np.array([any(amps[i] != 0 for i in range(a, len(amps), 1 << n))
                         for a in range(1 << n)])

    def test_every_form_agrees(self):
        rng = generator(75, "occupied", 0)
        for tau, n in TestSupportForm.LAYOUTS[1:]:
            lay = QubitLayout(tau, n)
            basic = StateVector.basic(lay, int(rng.integers(lay.dim)))
            for state in (basic, support_state(lay, rng, 1), support_state(lay, rng, 3),
                          random_state(lay, rng)):
                want = self.reference(state)
                assert qsim.occupied_words(state).dtype == bool
                assert np.array_equal(qsim.occupied_words(state), want)
                assert np.array_equal(qsim.occupied_words(dense(state)), want)

    def test_an_underflowing_amplitude_is_occupied_and_a_signed_zero_is_not(self):
        lay = QubitLayout(1, 2)
        amps = np.zeros(lay.dim, dtype=complex)
        amps[0], amps[1], amps[2] = 1.0, 1e-170j, complex(-0.0, -0.0)
        state = StateVector(lay, amps)
        assert query_mass(state, BitWord(2, 1)) == 0.0
        assert qsim.occupied_words(state).tolist() == [True, True, False, False]
        tiny = LocalUnitary((1,), [[1, -1e-170], [1e-170, 1]])  # address bit 1 of 2
        sup = apply_local_unitary(StateVector.basic(lay, 0), tiny)
        assert sup._support is not None and query_mass(sup, BitWord(2, 2)) == 0.0
        assert qsim.occupied_words(sup).tolist() == [True, False, True, False]

    def test_dense_reader_holds_no_complex_temporary(self):
        lay = QubitLayout(6, 7)  # 20 qubits: 16 MiB of amplitudes
        state = StateVector(lay, np.ones(lay.dim, dtype=complex) / 1024.0)
        qsim.occupied_words(state)
        tracemalloc.start()
        try:
            qsim.occupied_words(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * lay.dim  # one bool per amplitude, an eighth of a state

    def test_a_state_off_the_changed_words_steps_alike(self):
        # a round under g from a state that carries no word where f and g
        # differ gives the round under f's nonzero amplitudes bit for bit
        rng = generator(75, "alike", 0)
        for tau, n in TestSupportForm.LAYOUTS:
            lay = QubitLayout(tau, n)
            for gates in (1, 2, 3):
                state = support_state(lay, rng, gates)
                f = sample_uniform_oracle(n, rng)
                free = np.nonzero(~qsim.occupied_words(state))[0]
                if not len(free):
                    continue
                a = BitWord(n, int(rng.choice(free)))
                g = mutate(f, a, BitWord(n, int(f.values[a.value]) ^ 1))
                block = qsim.gate_block(lay, [random_gate(tuple(int(p) for p in rng.choice(
                    lay.total, size=k, replace=False)), rng) for k in (1, 2, 4)])
                for start in (state, dense(state)):
                    got, want = (qsim.apply_round(start, h, block) for h in (g, f))
                    assert np.array_equal(got.amplitudes, want.amplitudes)
                    assert query_masses(got).tobytes() == query_masses(want).tobytes()


def rule_masses(amps, n):
    """The mass rule stated on a dense vector: each address word's squares
    added in flat index order."""
    squares = (amps.real ** 2 + amps.imag ** 2).reshape(-1, 1 << n)
    words = np.zeros(1 << n)
    for row in squares:
        words += row
    return words


def rule_norm(amps, n):
    """The norm rule: the root of the 2**n word masses summed."""
    return float(np.sqrt(rule_masses(amps, n).sum()))


def held_support(lay, idx, vals):
    """A state held as the support (ascending idx, nonzero vals), no array built."""
    idx, vals = np.array(idx, dtype=np.int64), np.array(vals, dtype=complex)
    idx.flags.writeable = vals.flags.writeable = False
    return StateVector._of(lay, None, (idx, vals), None)


def amplitudes_of(lay, idx, vals):
    amps = np.zeros(lay.dim, dtype=complex)
    amps[idx] = vals
    return amps


class TestOneNormRule:
    """query_mass, difference_masses, norm and l2_distance follow the one
    per-word mass rule in every form and pair of forms, byte for byte, and
    a support's norm, its mass on one word or the distance or difference
    masses of two supports allocate nothing state-sized."""

    @staticmethod
    def assert_rule(lay, s1, s2, words=8):
        a1, a2 = amplitudes_of(lay, *s1), amplitudes_of(lay, *s2)
        n = lay.query_width
        want = np.float64(rule_norm(a1 - a2, n)).tobytes()
        want_masses = rule_masses(a1 - a2, n).tobytes()
        forms1 = (held_support(lay, *s1), StateVector(lay, a1))
        forms2 = (held_support(lay, *s2), StateVector(lay, a2))
        for v1 in forms1:
            assert np.float64(v1.norm).tobytes() == np.float64(rule_norm(a1, n)).tobytes()
            masses = rule_masses(a1, n)
            assert query_masses(v1).tobytes() == masses.tobytes()
            for a in range(0, 1 << n, max(1, (1 << n) // words)):
                assert np.float64(query_mass(v1, BitWord(n, a))).tobytes() == masses[a].tobytes()
            for v2 in forms2:
                assert np.float64(l2_distance(v1, v2)).tobytes() == want
                assert difference_masses(v1, v2).tobytes() == want_masses

    def test_every_pair_of_small_supports(self):
        rng = generator(81, "norm-rule", 0)
        for lay, sizes in ((QubitLayout(0, 1), (1, 2, 3, 4)), (QubitLayout(1, 1), (1, 2))):
            sets = [c for k in sizes for c in itertools.combinations(range(lay.dim), k)]
            for i1 in sets:
                for i2 in sets:
                    v1 = rng.standard_normal(len(i1)) + 1j * rng.standard_normal(len(i1))
                    v2 = rng.standard_normal(len(i2)) + 1j * rng.standard_normal(len(i2))
                    self.assert_rule(lay, (list(i1), v1), (list(i2), v2))
                    # the same amplitude wherever both hold an index
                    shared = dict(zip(i1, v1))
                    v2 = [shared.get(i, v) for i, v in zip(i2, v2)]
                    self.assert_rule(lay, (list(i1), v1), (list(i2), v2))

    def test_random_supports_up_to_18_qubits(self):
        rng, dense_rng = generator(81, "norm-rule", 1), generator(81, "norm-rule", 3)
        for tau, n in ((0, 3), (4, 3), (2, 6), (8, 3), (6, 6), (0, 9)):
            lay = QubitLayout(tau, n)
            # two dense states: each word's mass sums every entry of its column
            every = np.arange(lay.dim)
            self.assert_rule(lay, (every, random_state(lay, dense_rng).amplitudes),
                             (every, random_state(lay, dense_rng).amplitudes), words=32)
            for size in (1, 40, 500, 3000):
                size = min(size, lay.dim // 2)
                i1 = np.sort(rng.choice(lay.dim, size, replace=False))
                v1 = (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(size)
                # half of v2's indices are v1's, half of those with v1's amplitude
                own = rng.choice(lay.dim, size, replace=False)
                pick = rng.random(size) < 0.5
                i2 = np.where(pick, i1, own)
                i2 = np.unique(i2)
                v2 = (rng.standard_normal(len(i2)) + 1j * rng.standard_normal(len(i2)))
                v2 /= np.sqrt(len(i2))
                same = np.isin(i2, i1) & (rng.random(len(i2)) < 0.5)
                v2[same] = v1[np.searchsorted(i1, i2[same])]
                self.assert_rule(lay, (i1, v1), (i2, v2))

    def test_two_supports_and_a_support_norm_hold_nothing_state_sized(self):
        lay = QubitLayout(8, 6)  # 20 qubits: 16 MiB of amplitudes
        rng = generator(81, "norm-rule", 2)
        i1 = np.sort(rng.choice(lay.dim, 64, replace=False))
        i2 = np.unique(np.concatenate((i1[:32], rng.choice(lay.dim, 32, replace=False))))
        a = held_support(lay, i1, np.full(64, 1 / 8, dtype=complex))
        b = held_support(lay, i2, np.full(len(i2), 1j / 8))
        # n = 2: one word's column would take a quarter of the state
        narrow = QubitLayout(16, 2)
        c = held_support(narrow, i1, np.full(64, 1 / 8, dtype=complex))
        d = held_support(narrow, i2, np.full(len(i2), 1j / 8))
        for measure in (lambda: l2_distance(a, b), lambda: a.norm,
                        lambda: query_mass(c, BitWord(2, int(i1[0]) & 3)),
                        lambda: difference_masses(c, d)):
            tracemalloc.start()
            try:
                measure()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * lay.dim // 64
        assert all(v._amplitudes is None for v in (a, b, c, d))
