import json

import numpy as np
import pytest

from qqlab import harness, kernels
from qqlab.errors import CapExceededError, ConfigError, InputError, WidthMismatchError
from qqlab.harness import (CSV_SCHEMA, FAMILIES, ExperimentConfig, ExperimentReport,
                           adversary_success_rate, build_program, exact_census,
                           monte_carlo, wilson_interval)
from qqlab.oracles import BitWord, all_oracles, iterate, sample_uniform_oracle
from qqlab.programs import QueryProgram, success_probability
from qqlab.qsim import QubitLayout, StateVector
from qqlab.rng import generator


def cfg(**kw):
    return ExperimentConfig(**kw).validate()


class TestConfig:
    def test_accepts_valid(self):
        c = cfg(kind="lemma1", n=3, trials=10, seed=1)
        assert c.kind == "lemma1"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            cfg(kind="nope")

    def test_rejects_bad_trials_and_threshold(self):
        with pytest.raises(ConfigError):
            cfg(kind="lemma1", trials=0)
        with pytest.raises(ConfigError):
            cfg(kind="montecarlo", success_threshold=0.0)

    def test_adversary_regime(self):
        with pytest.raises(ConfigError):
            cfg(kind="adversary", T=3, t=3)
        cfg(kind="adversary", T=3, t=2)

    def test_adversary_rejects_full_emulation(self):
        with pytest.raises(ConfigError, match="truncated-emulation"):
            cfg(kind="adversary", family="classical-emulation", n=2, T=3)
        cfg(kind="adversary", family="truncated-emulation", n=2, T=3)

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(ConfigError, match="epsilon"):
            cfg(kind="adversary", family="random", n=3, T=3, epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", [-3000.0, -10 ** 9, 10 ** 400],
                             ids=["-3000.0", "-10**9", "10**400"])
    def test_rejects_epsilon_whose_threshold_overflows(self, epsilon):
        with pytest.raises(ConfigError, match="overflows"):
            cfg(kind="adversary", family="random", n=3, T=3, epsilon=epsilon)
        cfg(kind="adversary", family="random", n=3, T=1, t=0, epsilon=-3000.0)

    @pytest.mark.parametrize("kind", ["pigeonhole", "montecarlo", "census"])
    def test_truncated_family_keeps_at_most_T_rounds(self, kind):
        with pytest.raises(ConfigError, match="truncated-emulation"):
            cfg(kind=kind, family="truncated-emulation", n=2, T=3, t=5)
        cfg(kind=kind, family="truncated-emulation", n=2, T=3, t=3)

    @pytest.mark.parametrize("kind", ["pigeonhole", "montecarlo", "census"])
    def test_full_emulation_takes_exactly_T_rounds(self, kind):
        for t in (1, 2, 4):
            with pytest.raises(ConfigError, match="classical-emulation"):
                cfg(kind=kind, family="classical-emulation", n=2, T=3, t=t)
        cfg(kind=kind, family="classical-emulation", n=2, T=3, t=3)
        cfg(kind=kind, family="classical-emulation", n=2, T=3)

    def test_census_width_gate(self):
        with pytest.raises(ConfigError):
            cfg(kind="census", n=3)
        cfg(kind="census", n=3, allow_large_census=True)

    def test_rejects_wrong_types_and_negative_counts(self):
        for bad in ({"n": "3"}, {"trials": 2.5}, {"seed": True}, {"t": "1"},
                    {"family": 3}, {"epsilon": None}, {"tau_work": -1}, {"seed": -1},
                    {"t": -1}):
            with pytest.raises(ConfigError):
                cfg(kind="lemma2", **bad)
        cfg(kind="lemma2", t=0, epsilon=2, success_threshold=1)

    def test_from_file_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "c.json"
        for text in ("{not json", "[1, 2]"):
            path.write_text(text)
            with pytest.raises(ConfigError):
                ExperimentConfig.from_file(path, kind="lemma1")

    def test_from_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "lemma1", "n": 3, "trials": 7}))
        c = ExperimentConfig.from_file(path)
        assert c.n == 3 and c.trials == 7

    def test_from_file_unknown_key(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "lemma1", "bogus": 1}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_from_file_kind_fallback(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 2}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)
        assert ExperimentConfig.from_file(path, kind="lemma2").kind == "lemma2"

    def test_from_file_refuses_fields_the_kind_does_not_read(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "census", "seed": 9}))
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig.from_file(path)
        path.write_text(json.dumps({"kind": "lemma1", "n": 2}))
        with pytest.raises(ConfigError, match="lemma1"):
            ExperimentConfig.from_file(path, kind="lemma2")


class TestWilson:
    def test_degenerate_edges(self):
        assert wilson_interval(0, 10)[0] == 0.0
        assert wilson_interval(10, 10)[1] == 1.0

    def test_no_trials_give_the_whole_interval(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_symmetric_center(self):
        low, high = wilson_interval(50, 100)
        assert low == pytest.approx(0.4038, abs=2e-3)
        assert high == pytest.approx(0.5962, abs=2e-3)

    def test_contains_rate(self):
        low, high = wilson_interval(30, 200)
        assert low < 30 / 200 < high


class TestFamilies:
    def test_emulation_families(self):
        full = build_program("classical-emulation", 2, 3, None, 0, 0)
        assert full.query_count == 3
        trunc = build_program("truncated-emulation", 2, 3, None, 0, 0)
        assert trunc.query_count == 2
        assert trunc.output_region == full.output_region

    def test_concentrated_keeps_address_still(self):
        prog = build_program("concentrated", 3, 3, None, 1, 0)
        for g in prog.all_gates():
            assert all(t < prog.layout.work_count for t in g.targets)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            build_program("nope", 2, 2, None, 0, 0)

    def test_round_rule_holds_for_library_calls(self):
        # the t a family can take is checked where its programs are built,
        # not only when a config is validated
        with pytest.raises(ConfigError, match="classical-emulation"):
            build_program("classical-emulation", 2, 3, 1, 0, 0)
        with pytest.raises(ConfigError, match="classical-emulation"):
            exact_census("classical-emulation", 2, 3, t=1)
        with pytest.raises(ConfigError, match="truncated-emulation"):
            exact_census("truncated-emulation", 2, 3, t=5)
        assert exact_census("classical-emulation", 1, 2, t=2).t == 2
        assert exact_census("truncated-emulation", 1, 2, t=2).t == 2


class TestSweeps:
    def test_lemma1_sweep_clean(self):
        rep = monte_carlo(cfg(kind="lemma1", n=2, tau_work=2, trials=50, seed=3))
        assert rep.aggregates["violations"] == 0
        assert rep.aggregates["rows"] == 50
        assert rep.aggregates["min_slack"] >= -1e-9

    def test_lemma2_sweep_clean(self):
        rep = monte_carlo(cfg(kind="lemma2", n=2, tau_work=3, t=4, trials=30, seed=4))
        assert rep.aggregates["violations"] == 0

    @pytest.mark.parametrize("tau_work,zero_only", [(1, True), (3, False)])
    def test_lemma2_input_is_zero_without_room_for_a_word(self, tau_work, zero_only,
                                                          monkeypatch):
        # fewer working qubits than n cannot hold an input word: every trial
        # runs on the all-zero input, and with room some trial does not
        inputs, check = [], harness.lemma2_check

        def recorded(prog, f, a, y, x, context):
            inputs.append(x)
            return check(prog, f, a, y, x, context=context)
        monkeypatch.setattr(harness, "lemma2_check", recorded)
        rep = monte_carlo(cfg(kind="lemma2", n=3, tau_work=tau_work, t=3, trials=12, seed=8))
        assert rep.aggregates["violations"] == 0 and len(inputs) == 12
        assert all(x == BitWord.zero(3) for x in inputs) == zero_only

    def test_adversary_sweep(self):
        rep = monte_carlo(cfg(kind="adversary", family="random", n=5, T=2,
                              trials=20, seed=5))
        agg = rep.aggregates
        assert agg["traces"] == 20
        assert agg["succeeded"] + sum(agg["exhaustion_histogram"].values()) == 20
        assert agg["violations"] == 0

    def test_pigeonhole_sweep(self):
        rep = monte_carlo(cfg(kind="pigeonhole", family="random", n=6, T=16, t=2,
                              trials=20, seed=6))
        assert rep.aggregates["violations"] == 0
        # in the small-t regime even the unchecked rows hold
        assert all(r["slack"] >= -1e-9 for r in rep.rows)

    def test_csv_byte_identical_across_runs(self):
        c = cfg(kind="lemma1", n=2, trials=25, seed=11)
        assert monte_carlo(c).to_csv() == monte_carlo(c).to_csv()

    def test_csv_schema_header(self):
        rep = monte_carlo(cfg(kind="lemma1", n=1, trials=3, seed=0))
        lines = rep.to_csv().splitlines()
        assert lines[0].startswith("# qqlab-report v1 kind=lemma1")
        assert lines[1] == CSV_SCHEMA
        assert len(lines) == 2 + 3

    def test_report_files(self, tmp_path):
        out = tmp_path / "r.csv"
        monte_carlo(cfg(kind="lemma1", n=1, trials=3, seed=0, output_path=str(out)))
        assert out.exists() and out.with_suffix(".json").exists()
        payload = json.loads(out.with_suffix(".json").read_text())
        assert payload["aggregates"]["violations"] == 0

    def test_violation_rows_logic(self):
        rep = ExperimentReport(cfg(kind="lemma1"), rows=[
            {"context": "a", "lhs": 1.0, "rhs": 0.5, "slack": -0.5,
             "vacuous": False, "checked": True, "seed": "s"},
            {"context": "b", "lhs": 1.0, "rhs": 0.5, "slack": -0.5,
             "vacuous": False, "checked": False, "seed": "s"},
        ], aggregates={})
        assert [r["context"] for r in rep.violation_rows()] == ["a"]


class TestCensus:
    def test_all_four_width_one_oracles_succeed(self):
        rep = exact_census("classical-emulation", 1, 2)
        assert rep.total_oracles == 4
        assert rep.failing_fraction == 0.0

    def test_full_emulation_never_fails_at_width_two(self):
        rep = exact_census("classical-emulation", 2, 3)
        assert rep.total_oracles == 256
        assert rep.failing_fraction == 0.0

    def test_truncated_census_matches_return_count(self):
        rep = exact_census("truncated-emulation", 2, 3)
        zero = BitWord.zero(2)
        returns = sum(1 for f in all_oracles(2) if iterate(f, zero, 3) == zero)
        assert returns == 88  # first-return law: 64 period-1 + 24 period-3
        assert rep.failing_fraction == pytest.approx(1 - returns / 256)

    def test_census_gate(self):
        with pytest.raises(CapExceededError):
            exact_census("classical-emulation", 3, 2)
        with pytest.raises(ConfigError, match="use exact_census"):
            monte_carlo(ExperimentConfig(kind="census", n=2, T=3))

    def test_a_census_that_cannot_be_held_is_refused_before_any_work(self, monkeypatch):
        def walked(*args):
            raise AssertionError("the census went on to its work")
        monkeypatch.setattr(harness, "_success_walk", walked)
        monkeypatch.setattr(harness, "build_program", walked)
        with pytest.raises(MemoryError, match=f"a census of {1 << 64} oracles"):
            exact_census("classical-emulation", 4, 1, allow_large=True)
        with pytest.raises(MemoryError, match=f"a census of {1 << 64} oracles"):
            exact_census(QueryProgram(QubitLayout(0, 4), (), (), range(4)), 4, 1,
                         allow_large=True)
        # n = 3 holds 2**24 probabilities (128 MiB): it goes on to build and walk
        with pytest.raises(AssertionError, match="went on to its work"):
            exact_census("classical-emulation", 3, 2, allow_large=True)

    def test_custom_program_output_region_must_be_a_query_word(self):
        prog = QueryProgram(QubitLayout(1, 2), (), (), (0,))
        with pytest.raises(WidthMismatchError, match="output region size 1 != 2"):
            exact_census(prog, 2, 1)

    def test_census_files(self, tmp_path):
        rep = exact_census("classical-emulation", 1, 2)
        out = tmp_path / "census.csv"
        rep.write(out)
        lines = out.read_text().splitlines()
        assert lines[1] == "oracle_index,success_probability,success"
        assert len(lines) == 2 + 4
        with pytest.raises(InputError, match="json"):  # its own JSON sibling
            rep.write(tmp_path / "other.json")
        assert not (tmp_path / "other.json").exists()


class TestReportNumbers:
    """numpy numbers enter as plain ints and floats, so every report's JSON
    is written by plain json.dumps."""

    def test_census_of_numpy_sizes_writes_both_files(self, tmp_path):
        exact_census("classical-emulation", 2, 3).write(tmp_path / "plain.csv")
        rep = exact_census("classical-emulation", np.int64(2), np.int64(3))
        rep.write(tmp_path / "numpy.csv")
        for suffix in (".csv", ".json"):
            assert (tmp_path / f"numpy{suffix}").read_bytes() == \
                (tmp_path / f"plain{suffix}").read_bytes()
        payload = json.loads((tmp_path / "numpy.json").read_text())
        assert type(payload["n"]) is int and type(payload["T"]) is int

    @pytest.mark.parametrize("kind,fields", [
        ("lemma1", {"n": 2, "tau_work": 1, "trials": 2, "seed": 3}),
        ("lemma2", {"n": 2, "tau_work": 2, "t": 2, "trials": 2, "seed": 3}),
        ("adversary", {"family": "random", "n": 2, "tau_work": 1, "T": 2, "epsilon": 1.5,
                       "trials": 2, "seed": 3}),
        ("pigeonhole", {"family": "random", "n": 2, "tau_work": 1, "T": 4, "t": 1,
                        "trials": 2, "seed": 3}),
        ("montecarlo", {"family": "random", "n": 2, "tau_work": 1, "T": 3, "t": 2,
                        "success_threshold": 0.25, "trials": 4, "seed": 3}),
    ])
    def test_sweeps_from_numpy_config_values_write_plain_numbers(self, kind, fields,
                                                                 tmp_path):
        numpy_fields = {k: np.float32(v) if isinstance(v, float) else
                        np.int64(v) if isinstance(v, int) else v for k, v in fields.items()}
        runs = {}
        for name, values in (("numpy", numpy_fields), ("plain", fields)):
            out = tmp_path / f"{name}.csv"
            rep = monte_carlo(ExperimentConfig(kind=kind, output_path=str(out), **values))
            config = json.loads(out.with_suffix(".json").read_text())["config"]
            for key, value in fields.items():
                assert type(getattr(rep.config, key)) is type(value), key
                assert type(config[key]) is type(value) and config[key] == value, key
            runs[name] = out.read_bytes()
        assert runs["numpy"] == runs["plain"]


class TestMonteCarloRates:
    def test_truncated_rate_matches_census(self):
        exact = 1 - exact_census("truncated-emulation", 2, 3).failing_fraction
        rep = monte_carlo(cfg(kind="montecarlo", family="truncated-emulation",
                              n=2, T=3, trials=300, seed=8))
        low, high = rep.aggregates["success_wilson95"]
        assert low <= exact <= high

    def test_rate_matches_first_return_law(self):
        # P(orbit of 0 returns at a step dividing T) for T=2, n=3:
        # 1/8 + (7/8)(1/8)
        expect = 1 / 8 + (7 / 8) * (1 / 8)
        rep = monte_carlo(cfg(kind="montecarlo", family="truncated-emulation",
                              n=3, T=2, trials=300, seed=9))
        low, high = rep.aggregates["success_wilson95"]
        assert low <= expect <= high

    def test_montecarlo_determinism(self):
        c = cfg(kind="montecarlo", family="truncated-emulation", n=2, T=3,
                trials=40, seed=10)
        assert monte_carlo(c).to_csv() == monte_carlo(c).to_csv()

    def test_random_family_rate_matches_its_census(self):
        # the montecarlo kind studies one fixed machine, so its rate must
        # agree with an exact census of the very same program
        from qqlab.rng import generator
        seed = 14
        prog = build_program("random", 2, 2, 1, 2,
                             generator(seed, "montecarlo-prog", 0))
        exact = 1 - exact_census(prog, 2, 2).failing_fraction
        rep = monte_carlo(cfg(kind="montecarlo", family="random", n=2, T=2, t=1,
                              tau_work=2, trials=300, seed=seed))
        low, high = rep.aggregates["success_wilson95"]
        assert low <= exact <= high


class TestAdversaryRate:
    def test_concentrated_always_succeeds(self):
        rep = adversary_success_rate("concentrated", 3, 2, 1.0, trials=20, seed=12)
        assert rep.aggregates["success_rate"] == 1.0

    def test_rate_non_decreasing_in_width(self):
        rates = [adversary_success_rate("random", n, 2, 1.0, trials=40,
                                        seed=424).aggregates["success_rate"]
                 for n in (3, 4, 5)]
        assert rates[0] <= rates[1] <= rates[2]

    def test_exhaustion_histogram_accounts_for_failures(self):
        rep = adversary_success_rate("random", 3, 3, 1.0, trials=30, seed=13)
        agg = rep.aggregates
        assert agg["succeeded"] + sum(agg["exhaustion_histogram"].values()) == 30

    @pytest.mark.parametrize("family", ["random", "concentrated"])
    def test_same_aggregates_as_the_adversary_kind(self, family):
        rate = adversary_success_rate(family, 3, 3, 1.0, trials=20, seed=15).aggregates
        full = monte_carlo(cfg(kind="adversary", family=family, n=3, T=3, epsilon=1.0,
                               trials=20, seed=15, tau_work=2)).aggregates
        for key in ("traces", "succeeded", "success_wilson95", "exhaustion_histogram"):
            assert rate[key] == full[key]
        if family == "random":
            assert rate["exhaustion_histogram"]  # some traces exhaust


def test_census_finds_gate_permutations_once(monkeypatch):
    # the reference program is built before the counter goes in, so only
    # the census's own build is counted: one call per gate, none per run
    gates = len(list(build_program("classical-emulation", 2, 3, None, 0, 0).all_gates()))
    calls = []
    real = kernels.as_permutation

    def counted(matrix):
        calls.append(1)
        return real(matrix)

    monkeypatch.setattr(kernels, "as_permutation", counted)
    rep = exact_census("classical-emulation", 2, 3)
    assert rep.total_oracles == 256
    assert len(calls) == gates


def per_oracle(prog, oracles, T):
    """Each oracle's success probability from its own run, as the walk's reference."""
    zero = BitWord.zero(prog.layout.query_width)
    return [success_probability(prog, f, zero, iterate(f, zero, T)) for f in oracles]


class TestSuccessWalk:
    """census and montecarlo step the oracles that agree on the words a state
    carries together; each oracle still gets its own run's bits."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n,T", [(1, 2), (2, 3)])
    def test_census_equals_per_oracle_runs_byte_for_byte(self, family, n, T):
        prog = build_program(family, n, T, None, 0, 0)
        want = np.array(per_oracle(prog, all_oracles(n), T))
        assert np.array(exact_census(family, n, T).probabilities).tobytes() == want.tobytes()

    def test_chunks_give_the_same_bytes(self, monkeypatch):
        want = exact_census("random", 2, 3).probabilities
        monkeypatch.setattr(harness, "_WALK_CHUNK", 7)
        assert np.array(exact_census("random", 2, 3).probabilities).tobytes() == \
            np.array(want).tobytes()

    def test_random_montecarlo_rows_equal_per_trial_runs(self):
        c = cfg(kind="montecarlo", family="random", n=2, T=3, tau_work=2, trials=60, seed=21)
        prog = build_program(c.family, c.n, c.T, c.t, c.tau_work,
                             generator(c.seed, "montecarlo-prog", 0))
        oracles = [sample_uniform_oracle(c.n, generator(c.seed, "montecarlo", i))
                   for i in range(c.trials)]
        rows = monte_carlo(c).rows
        for i, p in enumerate(per_oracle(prog, oracles, c.T)):
            assert rows[i] == {"context": f"success_prob[trial={i}]", "lhs": p,
                               "rhs": c.success_threshold, "slack": c.success_threshold - p,
                               "vacuous": False, "checked": False, "seed": f"21/montecarlo/{i}",
                               "success": p >= c.success_threshold}
            assert np.float64(rows[i]["lhs"]).tobytes() == np.float64(p).tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_the_walk_holds_at_most_t_plus_one_states(self, family, monkeypatch):
        live, most = [0], [0]

        class Counted(StateVector):
            __slots__ = ()

            def __del__(self):
                live[0] -= 1

        def counted(state, f, block, real=harness.apply_round):
            out = real(state, f, block)
            live[0] += 1
            most[0] = max(most[0], live[0])
            return Counted._of(out.layout, out.index, out._support, out._amplitudes)

        monkeypatch.setattr(harness, "apply_round", counted)
        rep = exact_census(family, 2, 3)
        assert most[0] == rep.t + 1 and live[0] == 0

    def test_census_of_classical_emulation_steps_49_rounds(self, monkeypatch):
        # 256 oracles at one round per block each would step 1,024
        calls = []

        def counted(*args, real=harness.apply_round):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(harness, "apply_round", counted)
        assert exact_census("classical-emulation", 2, 3).failing_fraction == 0.0
        assert len(calls) == 49

    def test_large_census_draws_its_oracles_a_chunk_at_a_time(self, monkeypatch):
        drawn = []

        def counted(n, real=harness.all_oracles):
            for f in real(n):
                drawn.append(1)
                yield f

        class Stop(Exception):
            pass

        def stop(*args):
            raise Stop

        monkeypatch.setattr(harness, "all_oracles", counted)
        monkeypatch.setattr(harness, "_WALK_CHUNK", 64)
        monkeypatch.setattr(harness, "output_distribution", stop)
        # n = 3 has 2**24 oracles; the first final state is read after one chunk
        with pytest.raises(Stop):
            exact_census("classical-emulation", 3, 2, allow_large=True)
        assert len(drawn) == 64
