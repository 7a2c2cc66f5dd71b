import contextlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qqlab
from qqlab import cli, programs
from qqlab.cli import cli_main
from qqlab.harness import FAMILIES, KIND_FIELDS, KINDS, ExperimentConfig
from qqlab.oracles import BitWord, make_oracle, oracle_to_text, sample_uniform_oracle, save_oracle


def w(s):
    return BitWord.from_string(s)


class TestInfo:
    def test_exit_zero_and_version(self, capsys):
        assert cli_main(["info"]) == 0
        out = capsys.readouterr().out
        assert "qqlab" in out and "qubit cap" in out

    @pytest.mark.parametrize("cap", ["abc", "-3", "0", "1"])
    def test_bad_qubit_cap_prints_only_its_error(self, monkeypatch, capsys, cap):
        # every layout has at least 2 qubits (n = 1, no working qubits)
        monkeypatch.setenv("QQLAB_QUBIT_CAP", cap)
        assert cli_main(["info"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1

    def test_smallest_qubit_cap_runs_the_smallest_layout(self, monkeypatch, capsys):
        monkeypatch.setenv("QQLAB_QUBIT_CAP", "2")
        assert cli_main(["info"]) == 0
        assert "qubit cap: 2 " in capsys.readouterr().out
        assert cli_main(["lemma1", "--n", "1", "--tau-work", "0", "--trials", "1"]) == 0


class TestIterate:
    def test_prints_result(self, tmp_path, capsys):
        save_oracle(make_oracle(1, [w("1"), w("0")]), tmp_path / "f.txt")
        rc = cli_main(["iterate", "--oracle", str(tmp_path / "f.txt"),
                       "--x", "0", "--k", "3"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_a_huge_count_returns_at_once(self, tmp_path, capsys):
        save_oracle(make_oracle(1, [w("1"), w("0")]), tmp_path / "f.txt")
        rc = cli_main(["iterate", "--oracle", str(tmp_path / "f.txt"),
                       "--x", "0", "--k", str(10 ** 18 + 1)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_missing_file(self, tmp_path, capsys):
        rc = cli_main(["iterate", "--oracle", str(tmp_path / "nope.txt"),
                       "--x", "0", "--k", "1"])
        assert rc == 2


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert cli_main(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert cli_main(["iterate", "--x", "0", "--k", "1"]) == 2

    def test_negative_iteration_count(self, tmp_path):
        save_oracle(make_oracle(1, [w("1"), w("0")]), tmp_path / "f.txt")
        assert cli_main(["iterate", "--oracle", str(tmp_path / "f.txt"),
                         "--x", "0", "--k", "-1"]) == 2

    def test_bad_config_value(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "lemma1", "trials": 0}))
        assert cli_main(["lemma1", "--config", str(path)]) == 2


class TestInputErrors:
    """Malformed input exits 2 with a one-line message, never 1 or a traceback."""

    def assert_input_error(self, argv, capsys):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_oracle_file_with_non_bit_token(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_text("n=2\n00 01\n01 0x\n10 11\n11 00\n")
        self.assert_input_error(["iterate", "--oracle", str(path), "--x", "00", "--k", "1"],
                                capsys)

    def test_oracle_file_rows_out_of_order(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_text("n=2\n01 10\n00 01\n10 11\n11 00\n")
        assert cli_main(["iterate", "--oracle", str(path), "--x", "00", "--k", "1"]) == 2
        assert capsys.readouterr().err == "error: line 2: rows must be in ascending x order\n"

    def test_oracle_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "f.txt"
        path.write_bytes(b"n=1\n0 1\n1 0\xff\n")
        self.assert_input_error(["iterate", "--oracle", str(path), "--x", "0", "--k", "1"],
                                capsys)

    def test_config_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(b'{"kind": "lemma1", "n": 2\xff}')
        self.assert_input_error(["lemma1", "--config", str(path), "--trials", "1"], capsys)

    def test_layout_too_large_for_memory(self, monkeypatch, capsys):
        # 50 qubits: the 8 PiB request exceeds any address space, so
        # nothing is allocated whatever the overcommit policy
        monkeypatch.setenv("QQLAB_QUBIT_CAP", "64")
        self.assert_input_error(["lemma1", "--n", "25", "--tau-work", "0", "--trials", "1"],
                                capsys)

    def test_config_field_of_wrong_type(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"kind": "lemma1", "n": "3"}))
        self.assert_input_error(["lemma1", "--config", str(path), "--trials", "1"], capsys)

    def test_non_integer_qubit_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("QQLAB_QUBIT_CAP", "abc")
        self.assert_input_error(["lemma1", "--n", "2", "--trials", "1"], capsys)

    def test_layout_over_the_cap(self, monkeypatch, capsys):
        monkeypatch.delenv("QQLAB_QUBIT_CAP", raising=False)
        self.assert_input_error(["montecarlo", "--family", "classical-emulation",
                                 "--n", "6", "--T", "4", "--trials", "1"], capsys)

    def test_adversary_on_the_full_emulation(self, capsys):
        self.assert_input_error(["adversary", "--family", "classical-emulation",
                                 "--n", "2", "--T", "3"], capsys)

    def test_non_finite_epsilon(self, capsys):
        self.assert_input_error(["adversary", "--family", "random", "--n", "3", "--T", "3",
                                 "--epsilon", "nan"], capsys)

    def test_epsilon_whose_threshold_overflows(self, capsys):
        self.assert_input_error(["adversary", "--n", "2", "--T", "2", "--trials", "1",
                                 "--epsilon", "-3000"], capsys)

    @pytest.mark.parametrize("t", [[], ["--t", "1"]])
    def test_pigeonhole_T_past_int64(self, t, capsys):
        self.assert_input_error(["pigeonhole", "--n", "2", "--trials", "1",
                                 "--T", "100000000000000000000", *t], capsys)

    def test_lemma2_t_past_int64(self, capsys):
        self.assert_input_error(["lemma2", "--n", "2", "--tau-work", "2",
                                 "--t", str(1 << 63), "--trials", "1"], capsys)

    @pytest.mark.parametrize("argv", [["lemma1", "--n", "2", "--trials", "2"],
                                      ["census", "--n", "2", "--T", "3"]])
    def test_output_path_that_is_its_own_json_sibling(self, argv, tmp_path, capsys):
        # the CSV would be overwritten by the JSON written after it
        self.assert_input_error([*argv, "--out", str(tmp_path / "r.json")], capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["montecarlo", "pigeonhole", "census"])
    def test_truncated_rounds_beyond_T(self, kind, capsys):
        self.assert_input_error([kind, "--family", "truncated-emulation", "--n", "2",
                                 "--T", "3", "--t", "5"], capsys)

    @pytest.mark.parametrize("kind", ["montecarlo", "pigeonhole", "census"])
    def test_full_emulation_rounds_other_than_T(self, kind, capsys):
        self.assert_input_error([kind, "--family", "classical-emulation", "--n", "2",
                                 "--T", "3", "--t", "1"], capsys)


@contextlib.contextmanager
def address_space_cap(extra: int):
    """Cap this process's address space at what it maps now plus extra bytes,
    so a program that a broken refusal goes on building fails soon instead
    of filling the host's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    mapped = int(Path("/proc/self/statm").read_text().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    resource.setrlimit(resource.RLIMIT_AS, (mapped + extra, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestProgramTooLargeForMemory:
    """A program whose rounds cannot fit in physical memory is refused before
    anything is drawn: exit 2 at once, one `error:` line naming the rounds.
    The physical memory read from os.sysconf is patched to 1 GiB."""

    @pytest.fixture(autouse=True)
    def one_gib(self, monkeypatch):
        real, page = os.sysconf, os.sysconf("SC_PAGE_SIZE")
        monkeypatch.setattr(os, "sysconf", lambda name: (1 << 30) // page
                            if name == "SC_PHYS_PAGES" else real(name))

    @pytest.mark.parametrize("argv, rounds", [
        (["lemma2", "--n", "2", "--t", "99999999999", "--trials", "1"], r"\d+"),
        (["pigeonhole", "--family", "random", "--n", "2", "--T", str(1 << 62), "--trials", "1"],
         str(1 << 30)),  # the default t, about sqrt(T)/2
        (["pigeonhole", "--family", "concentrated", "--n", "2", "--T", str(1 << 62), "--t",
          str(1 << 40), "--trials", "1"], str(1 << 40)),
        (["adversary", "--family", "concentrated", "--n", "2", "--T", str(1 << 40),
          "--trials", "1"], str((1 << 40) - 1)),
        (["census", "--family", "random", "--n", "1", "--T", str(1 << 40)], str((1 << 40) - 1))],
        ids=["lemma2", "pigeonhole-random", "pigeonhole-concentrated", "adversary-concentrated",
             "census-random"])
    def test_exits_two_at_once_naming_the_rounds(self, argv, rounds, capsys):
        started = time.perf_counter()
        with address_space_cap(1 << 30):
            assert cli_main(argv) == 2
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert re.fullmatch(rf"error: a program of {rounds} rounds .*", err.strip())

    def test_a_census_that_cannot_be_held_exits_two_at_once(self, capsys):
        # 2**64 oracles at 8 B a probability: far beyond the patched 1 GiB, and
        # beyond any machine's memory, so the walk over them never starts
        started = time.perf_counter()
        with address_space_cap(1 << 30):
            assert cli_main(["census", "--family", "classical-emulation", "--n", "4",
                             "--T", "1", "--allow-large"]) == 2
        assert time.perf_counter() - started < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err == (f"error: a census of {1 << 64} oracles (8 B each) "
                                     "exceeds memory\n")

    def test_a_long_program_that_fits_is_built(self, monkeypatch, capsys):
        assert cli_main(["lemma2", "--n", "2", "--t", "1000", "--trials", "1"]) == 0

        class Drawn(Exception):
            pass

        def drawing(seed):  # the first draw comes after the refusal
            raise Drawn
        monkeypatch.setattr(programs, "as_generator", drawing)
        with pytest.raises(Drawn):
            programs.random_program(2, 2, 100000, 0)


def test_pigeonhole_reports_the_rounds_its_programs_run(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert cli_main(["pigeonhole", "--family", "classical-emulation", "--n", "2", "--T", "4",
                     "--trials", "1", "--out", str(out)]) == 0
    assert json.loads(out.with_suffix(".json").read_text())["aggregates"]["t"] == 4


class TestConfigPrecedence:
    """A config file overrides the command-line defaults only with the
    fields it sets."""

    def test_lemma1_config_keeps_the_default_trial_count(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"n": 2}))
        assert cli_main(["lemma1", "--config", str(path)]) == 0
        assert "rows: 100" in capsys.readouterr().out.splitlines()

    def test_census_config_keeps_the_default_family(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"T": 4}))
        assert cli_main(["census", "--config", str(path)]) == 0
        from_config = capsys.readouterr().out
        assert cli_main(["census", "--T", "4"]) == 0
        assert from_config == capsys.readouterr().out
        assert "failing fraction: 0.0" in from_config.splitlines()


class TestFieldsEachKindReads:
    """Flags and config fields a kind would ignore exit 2 with one line."""

    def assert_refused(self, argv, capsys):
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["census", "--trials", "7"],
        ["lemma1", "--family", "concentrated"],
        ["lemma2", "--family", "random"],
        ["lemma1", "--t", "3"],
        ["lemma2", "--T", "4"],
        ["lemma2", "--epsilon", "2"],
        ["lemma1", "--threshold", "0.5"],
    ])
    def test_flag_refused(self, argv, capsys):
        self.assert_refused(argv, capsys)

    @pytest.mark.parametrize("kind, fields", [
        ("census", {"seed": 9}),
        ("census", {"trials": 7}),
        ("census", {"tau_work": 4}),
        ("census", {"epsilon": 2.0}),
        ("lemma1", {"family": "concentrated"}),
        ("lemma1", {"t": 3}),
        ("lemma1", {"T": 4}),
        ("lemma2", {"epsilon": 2.0}),
        ("lemma2", {"success_threshold": 0.5}),
        ("lemma2", {"kind": "lemma1"}),
    ])
    def test_config_field_refused(self, kind, fields, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(fields))
        self.assert_refused([kind, "--config", str(path)], capsys)


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(qqlab.__file__).resolve().parents[1]
        env = {k: v for k, v in os.environ.items() if k != "QQLAB_QUBIT_CAP"}
        env["PYTHONPATH"] = f"{src}{os.pathsep}{env.get('PYTHONPATH', '')}"
        done = subprocess.run([sys.executable, "-m", "qqlab", "info"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert "qubit cap" in done.stdout


class TestSweepCommands:
    def test_lemma1_writes_report(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = cli_main(["lemma1", "--n", "2", "--trials", "20", "--seed", "42",
                       "--out", str(out)])
        assert rc == 0
        assert "violations: 0" in capsys.readouterr().out
        lines = out.read_text().splitlines()
        assert len(lines) == 2 + 20
        assert out.with_suffix(".json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert cli_main(["lemma1", "--n", "2", "--trials", "15", "--seed", "7",
                             "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_supplies_flags(self, tmp_path):
        path = tmp_path / "c.json"
        out = tmp_path / "r.csv"
        path.write_text(json.dumps({"n": 2, "trials": 9, "seed": 3,
                                    "output_path": str(out)}))
        assert cli_main(["lemma1", "--config", str(path)]) == 0
        assert len(out.read_text().splitlines()) == 2 + 9

    def test_explicit_flag_beats_config(self, tmp_path):
        path = tmp_path / "c.json"
        out = tmp_path / "r.csv"
        path.write_text(json.dumps({"n": 2, "trials": 9}))
        assert cli_main(["lemma1", "--config", str(path), "--trials", "4",
                         "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2 + 4

    def test_adversary_sweep_runs(self, capsys):
        rc = cli_main(["adversary", "--family", "random", "--n", "5", "--T", "2",
                       "--trials", "10", "--seed", "1"])
        assert rc == 0
        assert "success_rate" in capsys.readouterr().out

    def test_montecarlo_runs(self, capsys):
        rc = cli_main(["montecarlo", "--family", "truncated-emulation", "--n", "2",
                       "--T", "3", "--trials", "30", "--seed", "2"])
        assert rc == 0


class TestOneParserPerProcess:
    """cli_main builds its parser once; each call still sees only its own
    flags and the defaults of its kind."""

    def test_successive_calls_keep_no_flags(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        configs = []
        report = mock.Mock(aggregates={}, violation_rows=lambda: [])
        with mock.patch("qqlab.cli.monte_carlo",
                        side_effect=lambda cfg: configs.append(cfg) or report):
            assert cli_main(["montecarlo", "--n", "3", "--bogus"]) == 2
            assert cli_main(["montecarlo", "--family", "concentrated", "--n", "3",
                             "--tau-work", "0", "--T", "5", "--t", "2", "--trials", "7",
                             "--seed", "9", "--threshold", "0.5"]) == 0
            assert cli_main(["lemma1", "--n", "3", "--tau-work", "1", "--trials", "4"]) == 0
            assert cli_main(["montecarlo", "--T", "3"]) == 0
        assert configs == [
            ExperimentConfig("montecarlo", family="concentrated", n=3, tau_work=0, T=5, t=2,
                             trials=7, seed=9, success_threshold=0.5).validate(),
            ExperimentConfig("lemma1", n=3, tau_work=1, trials=4).validate(),
            ExperimentConfig("montecarlo", T=3, trials=100).validate(),
        ]


class TestCensusCommand:
    def test_tiny_census(self, capsys):
        rc = cli_main(["census", "--family", "classical-emulation", "--n", "1",
                       "--T", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "total oracles: 4" in out
        assert "failing fraction: 0.0" in out

    def test_width_two_emulation_census(self, capsys):
        rc = cli_main(["census", "--family", "classical-emulation", "--n", "2",
                       "--T", "3"])
        assert rc == 0
        assert "failing fraction: 0.0" in capsys.readouterr().out

    def test_census_gate_needs_flag(self, capsys):
        assert cli_main(["census", "--n", "3", "--T", "2"]) == 2

    @pytest.mark.parametrize("flag", ["--tau-work", "--seed"])
    def test_census_takes_no_work_qubits_or_seed(self, flag, capsys):
        # census programs are built with neither, so the flags are refused
        assert cli_main(["census", "--family", "random", "--n", "2", "--T", "3",
                         flag, "4"]) == 2


class TestExitOnViolation:
    def test_summary_flags_checked_violations(self, capsys):
        # the theorems cannot produce a violating row, so drive the exit
        # logic directly with a fabricated report
        from qqlab.cli import _print_summary
        from qqlab.harness import ExperimentConfig, ExperimentReport
        config = ExperimentConfig(kind="lemma1").validate()
        bad_row = {"context": "fake", "lhs": 1.0, "rhs": 0.0, "slack": -1.0,
                   "vacuous": False, "checked": True, "seed": "s"}
        report = ExperimentReport(config, [bad_row], {"violations": 1})
        assert _print_summary(report) == 1
        assert "VIOLATION" in capsys.readouterr().err

    def test_a_failed_identity_exits_one_with_one_check_line(self, monkeypatch, capsys):
        # a runner raising QqlabError, as the hybrid chain's identity check
        # does, is a failed check: status 1 and one `check failed:` line
        from qqlab import harness
        from qqlab.errors import QqlabError

        def failing(cfg):
            raise QqlabError("hybrid chain failed: 2.0 > 1.0")
        monkeypatch.setitem(harness._RUNNERS, "lemma1", failing)
        assert cli_main(["lemma1", "--trials", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["check failed: hybrid chain failed: 2.0 > 1.0"]

    def test_running_out_of_memory_exits_two_with_one_error_line(self, monkeypatch, capsys):
        # a bare MemoryError, as an allocation may raise, says no more than that
        from qqlab import harness

        def failing(cfg):
            raise MemoryError
        monkeypatch.setitem(harness._RUNNERS, "lemma1", failing)
        assert cli_main(["lemma1", "--trials", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == ["error: out of memory"]

    def test_unchecked_rows_do_not_fail_the_run(self):
        from qqlab.cli import _print_summary
        from qqlab.harness import ExperimentConfig, ExperimentReport
        config = ExperimentConfig(kind="lemma1").validate()
        row = {"context": "observation", "lhs": 1.0, "rhs": 0.0, "slack": -1.0,
               "vacuous": False, "checked": False, "seed": "s"}
        assert _print_summary(ExperimentReport(config, [row], {})) == 0


# every kind's fields: small valid values, and values no field accepts or
# that a field refuses; T, t and trials stay small because a run's length
# grows with them by design
_BAD = [0, -1, -3, 10 ** 9, -10 ** 9, 2 ** 70, True, False, None, "", "2", "random", 0.5,
        float("nan"), float("inf"), float("-inf"), [], {}]
_BOUNDED = ("T", "t", "trials")
_GOOD = {"family": st.sampled_from(FAMILIES), "n": st.integers(1, 3),
         "tau_work": st.integers(0, 3), "T": st.integers(1, 6), "t": st.integers(0, 4),
         "epsilon": st.floats(0.0, 3.0), "success_threshold": st.floats(0.0, 1.0),
         "allow_large_census": st.just(False), "trials": st.integers(1, 3),
         "seed": st.integers(0, 2 ** 40), "output_path": st.sampled_from(
             ["out.csv", "missing/out.csv", ".", "", None])}


@st.composite
def _field_value(draw, name):
    if draw(st.integers(0, 3)):  # three in four values are valid
        return draw(_GOOD[name])
    return draw(st.sampled_from([v for v in _BAD if not (
        name in _BOUNDED and isinstance(v, int) and v > 3
        or name == "allow_large_census" and v is True)]))


@st.composite
def _config_text(draw, kind):
    fields = draw(st.lists(st.sampled_from(KIND_FIELDS[kind]), unique=True, max_size=4))
    obj = {name: draw(_field_value(name)) for name in fields}
    if not draw(st.integers(0, 3)):
        obj[draw(st.sampled_from(["kind", "bogus", "tau", "oracle"]))] = draw(
            st.sampled_from(_BAD + [kind]))
    return json.dumps(obj).encode()


@st.composite
def _mutated(draw, data: bytes):
    """data with a few bytes replaced, inserted or dropped, any byte value."""
    data = bytearray(data)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["set", "insert", "drop"]))
        byte = draw(st.integers(0, 255))
        if op == "insert" or at == len(data):
            data.insert(at, byte)
        elif op == "set":
            data[at] = byte
        else:
            del data[at]
    return bytes(data)


class TestExitStatusContract:
    """Generated bad configs and damaged oracle files: every run exits 0, 1
    or 2, exit 2 says why in one `error:` line, and no exception escapes."""

    def run(self, argv, files):
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in files.items():
                Path(tmp, name).write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            cwd = os.getcwd()
            os.chdir(tmp)  # output paths are written inside the temporary directory
            try:
                with mock.patch.dict(os.environ, {"QQLAB_QUBIT_CAP": "12"}), \
                        contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli_main(argv)
            finally:
                os.chdir(cwd)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) == 1
        return rc

    @pytest.mark.parametrize("kind", KINDS)
    @given(data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_config_files(self, kind, data):
        text = data.draw(_config_text(kind))
        if not data.draw(st.integers(0, 3)):
            text = data.draw(_mutated(text))
        trials = [] if b'"trials"' in text or kind == "census" else ["--trials", "2"]
        self.run([kind, "--config", "c.json", *trials], {"c.json": text})

    @given(epsilon=st.floats(allow_nan=False, allow_infinity=False), T=st.integers(1, 6))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_adversary_epsilon(self, epsilon, T):
        # the config check takes any finite epsilon: the mass threshold
        # T**-(5 + epsilon/2) must then fit a float, or the run is refused
        self.run(["adversary", "--n", "1", "--tau-work", "0", "--T", str(T), "--trials", "1",
                  f"--epsilon={epsilon!r}"], {})

    @given(width=st.integers(1, 2), seed=st.integers(0, 100), data=st.data())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_oracle_files(self, width, seed, data):
        text = oracle_to_text(sample_uniform_oracle(width, seed)).encode()
        x = data.draw(st.sampled_from(["0", "1", "01", "10", "2", ""]))
        k = data.draw(st.sampled_from(["0", "3", str(10 ** 18), "-1", "x"]))
        self.run(["iterate", "--oracle", "f.txt", "--x", x, "--k", k],
                 {"f.txt": data.draw(_mutated(text))})
