"""Acceptance suite: one test per shipped criterion, at full stated scale.

Each test prints one summary line (visible with `pytest -rP` or `-s`).
Criterion 5 appears twice: once in the theorem-faithful form that this
package ships (exact identities enforced unconditionally, rate bounds
checked where their low-mass premise holds, premise failures surfaced in
reports), and once in the literal unconditional form, which is strictly
expected to fail because a program that opens by querying the input word
detects the construction's first redirection (see tests/test_analysis.py::
TestAdversaryBoundReport::test_concentrated_first_round_breaks_premise and
the README's "known limits" section).
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from qqlab.analysis import (adversary_bound_report, build_hard_oracle,
                            pigeonhole_mutation_check, query_mass_matrix)
from qqlab.errors import CapExceededError
from qqlab.harness import (ExperimentConfig, exact_census, monte_carlo,
                           run_adversary_trials)
from qqlab.oracles import (BitWord, all_oracles, iterate, sample_uniform_oracle)
from qqlab.programs import (classical_emulation_program, random_program, run,
                            success_probability, truncate_after_query)
from qqlab.qsim import (QubitLayout, StateVector, apply_local_unitary,
                        apply_query, query_mass, random_gate)
from qqlab.rng import generator

TOL = 1e-9


def cfg(**kw):
    return ExperimentConfig(**kw).validate()


def random_state(layout, rng):
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def test_criterion_1_single_query_bound_sweep():
    """1000 random (state, f, g) triples at each n in 1..4: no violations."""
    started = time.perf_counter()
    total = violations = 0
    for n in (1, 2, 3, 4):
        rep = monte_carlo(cfg(kind="lemma1", n=n, tau_work=2, trials=1000, seed=100 + n))
        total += rep.aggregates["rows"]
        violations += rep.aggregates["violations"]
    elapsed = time.perf_counter() - started
    assert total == 4000
    assert violations == 0
    assert elapsed < 60
    print(f"ACCEPTANCE 1 (single-query bound): PASS - {total} triples, "
          f"0 violations, {elapsed:.1f}s")


def test_criterion_2_hybrid_bound_sweep():
    """200 random programs (t <= 6, n <= 3, <= 8 work qubits) with random
    single-point mutations: no violations of the hybrid bound."""
    started = time.perf_counter()
    total = violations = 0
    for n, trials in ((1, 67), (2, 67), (3, 66)):
        rep = monte_carlo(cfg(kind="lemma2", n=n, tau_work=8, t=6,
                              trials=trials, seed=200 + n))
        total += rep.aggregates["rows"]
        violations += rep.aggregates["violations"]
    elapsed = time.perf_counter() - started
    assert total == 200
    assert violations == 0
    assert elapsed < 120
    print(f"ACCEPTANCE 2 (hybrid bound): PASS - {total} programs, "
          f"0 violations, {elapsed:.1f}s")


def test_criterion_3_machine_model_exactness():
    """Query involution at 1e-12 over 500 cases; traces norm-1 at 1e-9;
    gate kernel matches a dense full-register embedding at <= 10 qubits."""
    # involution
    rng = generator(300, "involution", 0)
    for _ in range(500):
        n = int(rng.integers(1, 4))
        lay = QubitLayout(int(rng.integers(0, 4)), n)
        st = random_state(lay, rng)
        f = sample_uniform_oracle(n, rng)
        back = apply_query(apply_query(st, f), f)
        assert np.abs(back.amplitudes - st.amplitudes).max() <= 1e-12

    # trace norms
    for trial in range(30):
        rng = generator(301, "norms", trial)
        prog = random_program(int(rng.integers(1, 4)), int(rng.integers(0, 5)),
                              int(rng.integers(0, 6)), rng)
        f = sample_uniform_oracle(prog.layout.query_width, rng)
        trace = run(prog, f, BitWord.zero(prog.layout.query_width))
        for s in trace.states:
            assert abs(s.norm - 1.0) <= 1e-9

    # dense-embedding oracle (built from the definition, no kernel code)
    from test_qsim import dense_embedding
    checked = 0
    for trial in range(40):
        rng = generator(302, "dense", trial)
        tau = int(rng.integers(0, 7))
        n = int(rng.integers(1, 3))
        lay = QubitLayout(tau, n)
        if lay.total > 10:
            continue
        k = int(rng.integers(1, min(4, lay.total) + 1))
        targets = tuple(int(x) for x in rng.choice(lay.total, size=k, replace=False))
        gate = random_gate(targets, rng)
        st = random_state(lay, rng)
        out = apply_local_unitary(st, gate)
        ref = dense_embedding(lay, gate) @ st.amplitudes
        assert np.abs(out.amplitudes - ref).max() <= 1e-12
        checked += 1
    assert checked >= 30
    print(f"ACCEPTANCE 3 (machine model): PASS - 500 involutions, 30 traces, "
          f"{checked} dense embeddings")


def test_criterion_4_classical_emulation_exactness():
    """Emulation computes the T-fold iterate with probability exactly 1
    using exactly T queries, querying the current orbit word every round:
    all 4 width-1 oracles and 100 random oracles each at widths 2 and 3,
    T covering 1..4."""
    started = time.perf_counter()
    checked = 0

    def check(prog, f, T, x):
        nonlocal checked
        n = f.width
        assert prog.query_count == T
        target = iterate(f, x, T)
        trace = run(prog, f, x)
        final_probs = None
        for i in range(T):
            assert query_mass(trace.states[i], iterate(f, x, i)) == pytest.approx(
                1.0, abs=TOL)
        assert success_probability(prog, f, x, target) == pytest.approx(1.0, abs=TOL)
        checked += 1

    programs = {(n, T): classical_emulation_program(n, T)
                for n in (1, 2, 3) for T in (1, 2, 3, 4)}
    for T in (1, 2, 3, 4):
        for f in all_oracles(1):
            check(programs[1, T], f, T, BitWord.zero(1))
    for n in (2, 3):
        for i in range(100):
            T = (i % 4) + 1
            f = sample_uniform_oracle(n, generator(400, f"emul-n{n}", i))
            check(programs[n, T], f, T, BitWord.zero(n))
    elapsed = time.perf_counter() - started
    assert checked == 16 + 200
    print(f"ACCEPTANCE 4 (classical emulation): PASS - {checked} runs exact, "
          f"{elapsed:.1f}s")


ADVERSARY_GRID = [(n, T) for n in (4, 5, 6) for T in (2, 3, 4)]


def _emulation_feasible(n, T):
    return n * (T + 1) + 2 * n <= 24


def _adversary_combo(family, n, T, trials, seed):
    rep = run_adversary_trials(cfg(kind="adversary", family=family, n=n, T=T,
                                   epsilon=1.0, trials=trials, seed=seed,
                                   tau_work=2))
    return rep.aggregates, rep


def test_criterion_5_adversary_suite():
    """Hard-oracle construction over (truncated emulation x random programs)
    at n in {4,5,6}, T in {2,3,4}, epsilon=1.  Every succeeded trace holds
    the pivot invariant and the exact identities (drift recursion, triangle,
    hybrid chain - enforced by raises), and no premise-valid rate bound is
    violated.  Emulation combos beyond the 24-qubit cap are reported
    infeasible; the feasible set must match the register arithmetic."""
    started = time.perf_counter()
    stats = {"traces": 0, "succeeded": 0, "premise_failures": 0,
             "raw_bound_violations": 0}
    violations = 0
    succeeded_by_family = {"random": 0, "truncated-emulation": 0}

    for n, T in ADVERSARY_GRID:
        agg, rep = _adversary_combo("random", n, T, trials=3, seed=500 + 10 * n + T)
        violations += agg["violations"]
        succeeded_by_family["random"] += agg["succeeded"]
        for key in stats:
            stats[key] += agg.get(key, 0)

    infeasible = []
    for n, T in ADVERSARY_GRID:
        if not _emulation_feasible(n, T):
            with pytest.raises(CapExceededError):
                classical_emulation_program(n, T)
            infeasible.append((n, T))
            continue
        trials = 2 if n * (T + 1) + 2 * n <= 20 else 1
        agg, rep = _adversary_combo("truncated-emulation", n, T, trials=trials,
                                    seed=550 + 10 * n + T)
        violations += agg["violations"]
        succeeded_by_family["truncated-emulation"] += agg["succeeded"]
        for key in stats:
            stats[key] += agg.get(key, 0)

    elapsed = time.perf_counter() - started
    assert infeasible == [(4, 4), (5, 2), (5, 3), (5, 4), (6, 2), (6, 3), (6, 4)]
    assert violations == 0
    assert succeeded_by_family["truncated-emulation"] >= 1
    assert succeeded_by_family["random"] >= 5
    assert elapsed < 600
    print(f"ACCEPTANCE 5 (adversary suite): PASS - {stats['traces']} traces, "
          f"{stats['succeeded']} succeeded, 0 premise-valid violations, "
          f"{stats['premise_failures']} premise failures and "
          f"{stats['raw_bound_violations']} raw bound excesses surfaced in reports, "
          f"emulation infeasible beyond cap at {infeasible}, {elapsed:.1f}s")


@pytest.mark.xfail(strict=True, reason=(
    "literal unconditional rate bounds: a first query concentrated on the "
    "input word always detects the first redirection (measured change "
    "sqrt(2)), so the unconditioned bound fails by construction; the "
    "theorem-faithful form above is the shipped check - see the README"))
def test_criterion_5_literal_unconditional_bounds():
    """The rate bounds asserted on every succeeded trace with no premise
    conditioning.  Deterministically fails on the emulation family."""
    prog = truncate_after_query(classical_emulation_program(4, 2), 1)
    trace = build_hard_oracle(prog, 2, 1.0, 5005)
    assert trace.succeeded
    report = adversary_bound_report(prog, trace, 2, 1.0)
    assert report.raw_violations() == []


def _planted_orbit_oracle(n, T, rng):
    """Uniform oracle conditioned on the input's first T orbit words being
    distinct: plant a fresh random path from the zero word, fill the rest
    uniformly.  This is the good event the t/T column bound lives on, which
    a raw uniform draw misses whenever the orbit collapses early (for
    T*T >> 2**n it almost always does)."""
    size = 1 << n
    values = rng.integers(0, size, size=size)
    path = [0] + [int(v) for v in 1 + rng.choice(size - 1, size=T - 1, replace=False)]
    for a, b in zip(path, path[1:]):
        values[a] = b
    from qqlab.oracles import OracleTable
    return OracleTable(n, values)


def test_criterion_6_orbit_mass_matrix_sweep():
    """100 (program, oracle) pairs in the t*t <= T/4 regime.  On every pair:
    deduplicated row masses bounded by 1, and final-state gap within the
    per-round and Cauchy column bounds (unconditional consequences of the
    hybrid bound).  On every pair whose first T orbit words are distinct -
    the premise the column pigeonhole needs, sampled both raw and planted -
    additionally: min column <= t/T and gap <= 2t/sqrt(T).  Zero violations
    everywhere."""
    started = time.perf_counter()
    combos = [(16, 2, 8, 33), (36, 3, 8, 33), (64, 4, 8, 34)]
    trials_done = distinct_done = collided = 0
    for T, t, n, trials in combos:
        assert t * t <= T / 4
        for i in range(trials):
            rng = generator(600, f"massmatrix-T{T}", i)
            prog = random_program(n, 2, t, rng)
            if i % 2 == 0:
                f = _planted_orbit_oracle(n, T, rng)
            else:
                f = sample_uniform_oracle(n, rng)
            m = query_mass_matrix(prog, f, T, BitWord.zero(n))
            assert m.row_sums.max() <= 1 + TOL
            rep = pigeonhole_mutation_check(prog, f, T, BitWord.zero(n), rng)
            assert rep.lhs <= 2 * float(np.sqrt(m.entries[:, rep.extra["j_star"]]).sum()) + TOL
            assert rep.lhs <= 2 * np.sqrt(t * rep.extra["column_sum"]) + TOL
            if m.distinct_orbit:
                assert m.col_sums.min() <= t / T + TOL
                assert rep.lhs <= 2 * t / np.sqrt(T) + TOL
                distinct_done += 1
            else:
                collided += 1
            trials_done += 1
    elapsed = time.perf_counter() - started
    assert trials_done == 100
    assert distinct_done >= 55  # every planted pair plus the lucky raw ones
    print(f"ACCEPTANCE 6 (orbit mass matrix): PASS - {trials_done} pairs "
          f"({distinct_done} with distinct orbits, {collided} collided), "
          f"0 violations, {elapsed:.1f}s")


def test_criterion_7_exact_census_and_monte_carlo():
    """Width-2 census: full emulation never fails over all 256 oracles; the
    truncated census equals the independently enumerated orbit-return
    fraction; Monte Carlo at the same parameters agrees within Wilson 95%."""
    started = time.perf_counter()
    full = exact_census("classical-emulation", 2, 3)
    assert full.total_oracles == 256
    assert full.failing_fraction == 0.0

    truncated = exact_census("truncated-emulation", 2, 3)
    zero = BitWord.zero(2)
    returns = sum(1 for f in all_oracles(2) if iterate(f, zero, 3) == zero)
    assert returns == 88
    assert truncated.failing_fraction == pytest.approx(1 - returns / 256, abs=1e-12)

    mc = monte_carlo(cfg(kind="montecarlo", family="truncated-emulation", n=2, T=3,
                         trials=600, seed=700))
    low, high = mc.aggregates["success_wilson95"]
    exact_rate = returns / 256
    assert low <= exact_rate <= high
    elapsed = time.perf_counter() - started
    assert elapsed < 60
    print(f"ACCEPTANCE 7 (exact census): PASS - 256+256 oracles enumerated, "
          f"failing fractions 0 and {truncated.failing_fraction:.5f}, Monte Carlo "
          f"rate {mc.aggregates['success_rate']:.4f} covers {exact_rate:.5f}, "
          f"{elapsed:.1f}s")


REPRO_COMMANDS = [
    ["lemma1", "--n", "3", "--trials", "60", "--seed", "42"],
    ["lemma2", "--n", "2", "--t", "4", "--trials", "25", "--seed", "42"],
    ["adversary", "--family", "random", "--n", "5", "--T", "2",
     "--trials", "12", "--seed", "42"],
    ["pigeonhole", "--family", "random", "--n", "6", "--T", "16", "--t", "2",
     "--trials", "12", "--seed", "42"],
    ["montecarlo", "--family", "truncated-emulation", "--n", "2", "--T", "3",
     "--trials", "40", "--seed", "42"],
]

THREAD_COMMAND = ["lemma2", "--n", "3", "--tau-work", "8", "--t", "3", "--trials", "30",
                  "--seed", "1"]


def test_criterion_8_reproducibility(tmp_path):
    """Fixed seed: byte-identical CSV across repeated runs and across BLAS
    thread-count settings."""
    from qqlab.cli import cli_main
    started = time.perf_counter()
    for idx, command in enumerate(REPRO_COMMANDS):
        outs = []
        for rep in (0, 1):
            out = tmp_path / f"r{idx}_{rep}.csv"
            assert cli_main(command + ["--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], f"re-run of {command[0]} differed"

    # thread-count independence via subprocess environments; the 14-qubit
    # lemma2 run takes distances long enough for a threaded BLAS to split
    import os
    for idx, (command, counts) in enumerate(((REPRO_COMMANDS[0], ("1", "4")),
                                             (THREAD_COMMAND, ("1", "2")))):
        blobs = []
        for threads in counts:
            out = tmp_path / f"threads_{idx}_{threads}.csv"
            env = dict(os.environ,
                       OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads)
            code = ("import sys; from qqlab.cli import cli_main; "
                    "sys.exit(cli_main(sys.argv[1:]))")
            proc = subprocess.run([sys.executable, "-c", code] + command +
                                  ["--out", str(out)], env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr.decode()
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"{command[0]} differed under {counts} threads"
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE 8 (reproducibility): PASS - {len(REPRO_COMMANDS)} commands "
          f"byte-identical, thread counts 1 vs 4 and 1 vs 2 identical, {elapsed:.1f}s")
