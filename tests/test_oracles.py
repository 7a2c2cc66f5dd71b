import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qqlab.errors import InputError, LengthMismatchError, WidthMismatchError
from qqlab.oracles import (BitWord, OracleTable, all_oracles, diff_set, iterate,
                           load_oracle, make_oracle, mutate, oracle_from_text,
                           oracle_to_text, orbit, sample_uniform_oracle, save_oracle)
from qqlab.rng import generator


def w(s):
    return BitWord.from_string(s)


class TestBitWord:
    def test_encoding_is_msb_first(self):
        assert w("110").value == 6
        assert BitWord(3, 6).bits == (1, 1, 0)
        assert str(BitWord(3, 6)) == "110"

    def test_round_trip(self):
        for v in range(8):
            word = BitWord(3, v)
            assert BitWord.from_bits(word.bits) == word
            assert BitWord.from_string(str(word)) == word

    def test_range_checks(self):
        with pytest.raises(WidthMismatchError):
            BitWord(2, 4)
        with pytest.raises(WidthMismatchError):
            BitWord(0, 0)

    def test_xor(self):
        assert w("101") ^ w("011") == w("110")
        with pytest.raises(WidthMismatchError):
            w("10") ^ w("1")


class TestMakeOracle:
    def test_explicit_table(self):
        f = make_oracle(1, [w("1"), w("0")])
        assert f(w("0")) == w("1")
        assert f(w("1")) == w("0")

    def test_identity(self):
        f = make_oracle(1, [w("0"), w("1")])
        assert f(w("0")) == w("0")
        assert f(w("1")) == w("1")

    def test_width_mismatch(self):
        with pytest.raises(WidthMismatchError):
            make_oracle(2, [w("000")] * 4)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            make_oracle(2, [w("00")] * 3)
        for values in ([0, 1, 2], [0, 1, 2, 3, 0], [[0, 1], [2, 3]]):
            with pytest.raises(LengthMismatchError, match="must have 4 entries"):
                OracleTable(2, values)

    def test_constructor_leaves_the_callers_array_alone(self):
        v = np.array([1, 0, 3, 2], dtype=np.int64)
        f = OracleTable(2, v)
        v[0] = 2
        assert v.flags.writeable
        assert f.values[0] == 1 and not f.values.flags.writeable

    # the range check is one bitwise-or reduction: any entry below 0 or of
    # 2**n or more sets a bit at position n or above, the int64 extremes too
    @pytest.mark.parametrize("n", [1, 3, 6])
    @pytest.mark.parametrize("bad", [lambda n: -1, lambda n: 1 << n, lambda n: -2**63,
                                     lambda n: 2**63 - 1],
                             ids=["-1", "2**n", "-2**63", "2**63-1"])
    def test_every_out_of_range_entry_is_refused(self, n, bad):
        top = (1 << n) - 1  # a table of all 2**n - 1 is in range
        assert np.array_equal(OracleTable(n, np.full(1 << n, top)).values, [top] * (1 << n))
        for pos in (0, (1 << n) - 1):
            v = np.full(1 << n, top, dtype=np.int64)
            v[pos] = bad(n)
            with pytest.raises(WidthMismatchError):
                OracleTable(n, v)


class TestSampling:
    def test_deterministic_given_seed(self):
        assert sample_uniform_oracle(3, 99) == sample_uniform_oracle(3, 99)
        assert sample_uniform_oracle(3, 99) != sample_uniform_oracle(3, 98)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_marginal_frequency(self, n):
        # P(f(0) = 1) should be 2**-n within 4 binomial sigmas
        N = 10_000
        rng = generator(7, "marginal", n)
        hits = sum(int(sample_uniform_oracle(n, rng).values[0]) == 1 for _ in range(N))
        p = 2.0 ** -n
        assert abs(hits / N - p) <= 4 * np.sqrt(p * (1 - p) / N)

    def test_all_256_tables_equally_likely(self):
        # every one of the 2**(2*4) = 256 width-2 tables within 3 sigma of 1/256
        N = 100_000
        rng = generator(2024, "census-freq", 0)
        counts = np.zeros(256, int)
        for _ in range(N):
            f = sample_uniform_oracle(2, rng)
            code = 0
            for v in f.values:
                code = code * 4 + int(v)
            counts[code] += 1
        p = 1 / 256
        sigma = np.sqrt(p * (1 - p) / N)
        assert np.abs(counts / N - p).max() <= 3 * sigma


class TestIterate:
    def test_identity_fixed(self):
        f = make_oracle(2, [w("00"), w("01"), w("10"), w("11")])
        assert iterate(f, w("10"), 7) == w("10")

    def test_not_gate_parity(self):
        f = make_oracle(1, [w("1"), w("0")])
        assert iterate(f, w("0"), 3) == w("1")
        assert iterate(f, w("0"), 4) == w("0")

    def test_four_cycle(self):
        f = make_oracle(2, [w("01"), w("10"), w("11"), w("00")])
        assert iterate(f, w("00"), 5) == w("01")

    def test_orbit_matches_iterate(self):
        f = sample_uniform_oracle(3, 5)
        x = w("010")
        assert orbit(f, x, 6) == [iterate(f, x, k) for k in range(6)]

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_iteration_adds(self, k1, k2, seed):
        f = sample_uniform_oracle(2, seed)
        x = BitWord(2, seed % 4)
        assert iterate(f, iterate(f, x, k1), k2) == iterate(f, x, k1 + k2)

    def test_width_mismatch(self):
        f = sample_uniform_oracle(2, 0)
        for walk in (iterate, orbit):
            with pytest.raises(WidthMismatchError):
                walk(f, w("0"), 1)

    def test_matches_the_plain_walk(self):
        for f in all_oracles(2):
            for x in range(4):
                v = x
                for k in range(12):
                    assert iterate(f, BitWord(2, x), k).value == v
                    v = int(f.values[v])

    def test_orbit_equals_the_plain_walk(self):
        def walk(f, x, length):
            out, v = [], x
            for _ in range(length):
                out.append(v)
                v = int(f.values[v])
            return out

        rng = generator(13, "orbit", 0)
        cases = [(f, x) for f in all_oracles(2) for x in range(4)]
        cases += [(sample_uniform_oracle(4, rng), int(rng.integers(16))) for _ in range(200)]
        for f, x in cases:
            for length in range(11 if f.width == 2 else 41):
                words = orbit(f, BitWord(f.width, x), length)
                assert [(v.width, v.value) for v in words] == [(f.width, v)
                                                               for v in walk(f, x, length)]

    def test_huge_counts_reduce_modulo_the_cycle(self):
        k = 10 ** 18
        for seed in range(20):
            f = sample_uniform_oracle(6, seed)
            x = BitWord(6, seed)
            walk = [x.value]  # walk to the first repeat: tail, then one cycle
            while walk.count(walk[-1]) == 1:
                walk.append(int(f.values[walk[-1]]))
            start = walk.index(walk[-1])
            cycle = len(walk) - 1 - start
            assert iterate(f, x, k).value == walk[start + (k - start) % cycle]


class TestMutate:
    def test_noop_mutation(self):
        f = sample_uniform_oracle(2, 3)
        g = mutate(f, w("01"), f(w("01")))
        assert not diff_set(f, g).any()
        assert f == g

    def test_explicit(self):
        f = make_oracle(1, [w("0"), w("1")])
        g = mutate(f, w("0"), w("1"))
        assert g(w("0")) == w("1") and g(w("1")) == w("1")

    def test_single_point_diff(self):
        f = sample_uniform_oracle(3, 4)
        x, y = w("010"), w("111")
        if f(x) == y:
            y = w("000") if f(x) != w("000") else w("001")
        g = mutate(f, x, y)
        assert np.flatnonzero(diff_set(f, g)).tolist() == [x.value]

    def test_never_aliases(self):
        f = sample_uniform_oracle(2, 8)
        before = f.values.copy()
        mutate(f, w("00"), w("11"))
        assert np.array_equal(f.values, before)


class TestDiffSet:
    def test_equal_tables(self):
        f = sample_uniform_oracle(2, 1)
        assert diff_set(f, f).sum() == 0

    def test_identity_vs_not(self):
        ident = make_oracle(1, [w("0"), w("1")])
        flip = make_oracle(1, [w("1"), w("0")])
        assert diff_set(ident, flip).tolist() == [True, True]

    def test_empty_iff_identical(self):
        f = sample_uniform_oracle(2, 10)
        g = mutate(f, w("01"), BitWord(2, (f(w("01")).value + 1) % 4))
        assert diff_set(f, g).sum() == 1
        assert diff_set(f, f).sum() == 0

    def test_is_a_read_only_mask_over_every_word(self):
        f, g = sample_uniform_oracle(3, 1), sample_uniform_oracle(3, 2)
        mask = diff_set(f, g)
        assert mask.dtype == bool and mask.shape == (8,)
        assert mask.tolist() == [f(BitWord(3, x)) != g(BitWord(3, x)) for x in range(8)]
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = not mask[0]

    def test_widths_must_match(self):
        with pytest.raises(WidthMismatchError, match="different widths"):
            diff_set(sample_uniform_oracle(2, 1), sample_uniform_oracle(3, 1))


class TestAllOracles:
    def test_width_one_has_four(self):
        tables = list(all_oracles(1))
        assert len(tables) == 4
        assert len({t.values.tobytes() for t in tables}) == 4

    def test_width_two_has_256(self):
        tables = list(all_oracles(2))
        assert len(tables) == 256
        assert len({t.values.tobytes() for t in tables}) == 256


class TestOracleFiles:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_text_round_trip(self, seed):
        f = sample_uniform_oracle(3, seed)
        assert oracle_from_text(oracle_to_text(f)) == f

    def test_format_shape(self):
        f = make_oracle(1, [w("1"), w("0")])
        assert oracle_to_text(f) == "n=1\n0 1\n1 0\n"

    def test_file_round_trip(self, tmp_path):
        f = sample_uniform_oracle(2, 77)
        path = tmp_path / "f.txt"
        save_oracle(f, path)
        assert load_oracle(path) == f

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            oracle_from_text("hello\n")
        with pytest.raises(LengthMismatchError):
            oracle_from_text("n=1\n0 1\n")
        with pytest.raises(InputError, match="line 2: rows must be in ascending x order"):
            oracle_from_text("n=1\n1 0\n0 1\n")
