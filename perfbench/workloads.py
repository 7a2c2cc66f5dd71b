"""The three workloads: their inputs, their operations and the checks on
the program's outputs.

A workload is built from the benchmark seed alone; the program receives
only the generated inputs.  Its operations form one round, and every round
repeats the same operations on the same inputs.  Each operation times its
calls into qqlab with the clock it is given and checks the outputs outside
that clock; checks rest on facts derived here (orbits walked over the
oracle table, unitarity, the lemmas' inequalities, an independent dense
embedding), never on outputs recorded from an earlier run.

Program functions are looked up on the package at call time (``q.run``)
so that the tracer's rebinding of those names takes effect.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
from functools import cache, partial

import numpy as np

TOL = 1e-9


class CheckFailed(Exception):
    """An operation completed but its output is wrong."""


class OpFailed(Exception):
    """An operation did not complete as the program's contract says."""


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


def walk(values, x: int, length: int) -> list[int]:
    """x, f(x), f(f(x)), ... read directly off an oracle's value table."""
    out = []
    for _ in range(length):
        out.append(int(x))
        x = int(values[x])
    return out


def checked_rows_hold(rows, where):
    for r in rows:
        if r.checked:
            check(r.lhs <= r.rhs + TOL, f"{where}: checked row {r.context} "
                                        f"has lhs {r.lhs} > rhs {r.rhs}")


def haar_program(q, layout, t, rng, sizes):
    """Fixed-shape program of Haar gates: one gate of each size in `sizes` in
    the prelude and in every round, on targets drawn from the seed."""
    def block():
        return tuple(q.random_gate(tuple(int(p) for p in
                                         rng.choice(layout.total, size=k, replace=False)), rng)
                     for k in sizes)
    return q.QueryProgram(layout, block(), tuple(block() for _ in range(t)),
                          tuple(range(layout.query_width)))


# ----------------------------------------------------------------------
# emulation: reversible programs on basis inputs, up to the 24-qubit cap

# (n, T, oracles): classical_emulation_program needs n*(T+1) + 2n qubits
EXACT_CASES = ((2, 1, 4), (2, 2, 4), (2, 3, 4), (2, 4, 4),
               (3, 1, 2), (3, 2, 2), (3, 3, 2), (3, 4, 1),
               (4, 1, 2), (4, 2, 1), (4, 3, 1))
# above this many qubits the whole state chain is not kept (run is skipped)
CHAIN_QUBITS = 21
# truncated-emulation adversary trials: (n, T, trials); 18 and 20 qubits
EMULATION_ADVERSARY = ((3, 3, 2), (4, 2, 2))
EPSILON = 1.0


class Emulation:
    name = "emulation"
    speed = "numpy"         # calibration loop of speed.py

    def __init__(self, q, seed, workdir):
        self.q = q
        rng = np.random.default_rng([seed, 1])
        self.ops = []
        for n, T, count in EXACT_CASES:
            prog = q.classical_emulation_program(n, T)
            cases = []
            for _ in range(count):
                values = rng.integers(0, 1 << n, size=1 << n)
                x = int(rng.integers(0, 1 << n))
                cases.append((q.OracleTable(n, values), q.BitWord(n, x), walk(values, x, T + 1)))
            self.ops.append((f"exact-n{n}-T{T}", partial(self.exact, prog, T, cases)))
        for n, T, trials in EMULATION_ADVERSARY:
            prog = q.truncate_after_query(q.classical_emulation_program(n, T), T - 1)
            for j in range(trials):
                self.ops.append((f"adversary-n{n}-T{T}-{j}",
                                 partial(self.adversary, prog, T, int(rng.integers(1 << 31)))))

    def exact(self, prog, T, cases, clock):
        q = self.q
        keep_chain = prog.layout.total <= CHAIN_QUBITS
        for f, x, orbit in cases:
            n = f.width
            target = q.BitWord(n, orbit[T])
            with clock:
                trace = q.run(prog, f, x) if keep_chain else None
                p = q.success_probability(prog, f, x, target)
            if trace is not None:
                check(len(trace.states) == T + 1, "state chain length")
                for i in range(T):
                    mass = q.query_mass(trace.states[i], q.BitWord(n, orbit[i]))
                    check(abs(mass - 1.0) <= TOL,
                          f"n={n} T={T}: mass {mass} on orbit word {i} before query {i + 1}")
            check(abs(p - 1.0) <= TOL, f"n={n} T={T}: success probability {p}")

    def adversary(self, prog, T, seed, clock):
        q = self.q
        with clock:
            trace = q.build_hard_oracle(prog, T, EPSILON, seed)
            report = q.adversary_bound_report(prog, trace, T, EPSILON) if trace.succeeded else None
        check(trace.succeeded, f"emulation trace exhausted at {trace.exhausted_at}")
        n = prog.layout.query_width
        w = 0
        for i, step in enumerate(trace.steps):
            # each round queries the word the evolving oracles walked to
            mass = q.query_mass(step.state, q.BitWord(n, w))
            check(abs(mass - 1.0) <= TOL, f"step {i}: mass {mass} on walked word {w}")
            w = int(step.oracle.values[w])
        check(report.t == T - 1, "report round count")
        checked_rows_hold(report.rows, "emulation adversary")


# ----------------------------------------------------------------------
# haar: dense Haar-random gates at 14-18 qubits

MASS_N, MASS_TAU = 8, 2
MASS_CASES = ((16, 2), (36, 3), (64, 4))     # (T, t), t*t <= T/4
MASS_PAIRS = 2                               # planted and raw oracles each
HAAR_ADVERSARY = (3, 4)                      # (T, trials) at 18 qubits
GATHER_CASES = ((5, 5, 2, 2), (6, 6, 2, 2))  # (tau, n, t, programs): 15 and 18 qubits
KRON_CASES = ((2, 3, 3), (2, 4, 4), (4, 3, 4))   # (tau, n, targets): 8-10 qubits


def planted_orbit_oracle(n, T, rng):
    """Uniform table conditioned on the zero word's first T orbit words
    being distinct: plant a random path from 0, fill the rest uniformly."""
    size = 1 << n
    values = rng.integers(0, size, size=size)
    path = [0] + [int(v) for v in 1 + rng.choice(size - 1, size=T - 1, replace=False)]
    for a, b in zip(path, path[1:]):
        values[a] = b
    return values


def index_bit(tau, n, position):
    """Flat-index bit of a qubit position, from the documented encoding:
    working register on top, then the answer half, address in the low bits,
    each word most-significant-bit first."""
    if position < tau:
        return 2 * n + (tau - 1 - position)
    if position < tau + n:
        return n - 1 - (position - tau)
    return 2 * n - 1 - (position - tau - n)


def dense_embedding(tau, n, targets, u):
    """Full 2**N x 2**N matrix of u on the targets, identity elsewhere."""
    total = tau + 2 * n
    dim = 1 << total
    bits = [index_bit(tau, n, p) for p in targets]
    k = len(bits)
    cols = np.arange(dim)
    local = np.zeros(dim, dtype=np.int64)
    mask = 0
    for j, b in enumerate(bits):
        local |= ((cols >> b) & 1) << (k - 1 - j)
        mask |= 1 << b
    rest = cols & ~mask
    m = np.zeros((dim, dim), dtype=np.complex128)
    for row_local in range(1 << k):
        offset = sum(((row_local >> (k - 1 - j)) & 1) << b for j, b in enumerate(bits))
        m[rest | offset, cols] = u[row_local, local]
    return m


class Haar:
    name = "haar"
    speed = "numpy"

    def __init__(self, q, seed, workdir):
        self.q = q
        rng = np.random.default_rng([seed, 2])
        self.ops = []
        layout = q.QubitLayout(MASS_TAU, MASS_N)
        zero = q.BitWord.zero(MASS_N)
        for T, t in MASS_CASES:
            for kind in ("planted", "raw"):
                for j in range(MASS_PAIRS):
                    prog = haar_program(q, layout, t, rng, (1, 2))
                    if kind == "planted":
                        values = planted_orbit_oracle(MASS_N, T, rng)
                    else:
                        values = rng.integers(0, 1 << MASS_N, size=1 << MASS_N)
                    f = q.OracleTable(MASS_N, values)
                    self.ops.append((f"mass-T{T}-{kind}-{j}",
                                     partial(self.mass_matrix, prog, f, T, zero,
                                             walk(values, 0, T), kind,
                                             int(rng.integers(1 << 31)))))
        T, trials = HAAR_ADVERSARY
        for j in range(trials):
            prog = haar_program(q, layout, T - 1, rng, (1, 2))
            self.ops.append((f"adversary-T{T}-{j}",
                             partial(self.adversary, prog, T, int(rng.integers(1 << 31)))))
        for tau, n, t, count in GATHER_CASES:
            glayout = q.QubitLayout(tau, n)
            for j in range(count):
                prog = haar_program(q, glayout, t, rng, (3, 4))
                values = rng.integers(0, 1 << n, size=1 << n)
                a = int(rng.integers(0, 1 << n))
                y = int((values[a] + rng.integers(1, 1 << n)) % (1 << n))   # y != f(a)
                x = int(rng.integers(0, 1 << n))
                self.ops.append((f"lemma2-q{glayout.total}-{j}",
                                 partial(self.lemma2, prog, q.OracleTable(n, values),
                                         q.BitWord(n, a), q.BitWord(n, y), q.BitWord(n, x))))
        for tau, n, k in KRON_CASES:
            total = tau + 2 * n
            amps = rng.standard_normal(1 << total) + 1j * rng.standard_normal(1 << total)
            state = q.StateVector(q.QubitLayout(tau, n), amps / np.linalg.norm(amps))
            targets = tuple(int(p) for p in rng.choice(total, size=k, replace=False))
            gate = q.random_gate(targets, rng)
            self.ops.append((f"kron-q{total}-k{k}", partial(self.kron, state, gate, tau, n, {})))

    def mass_matrix(self, prog, f, T, x, orbit, kind, seed, clock):
        q = self.q
        t = prog.query_count
        with clock:
            m = q.query_mass_matrix(prog, f, T, x)
            rep = q.pigeonhole_mutation_check(prog, f, T, x, seed)
        check([w.value for w in m.orbit_words] == orbit, "orbit words")
        entries = np.asarray(m.entries)
        check(entries.shape == (t, T), "mass matrix shape")
        first = [orbit.index(w) for w in sorted(set(orbit))]
        rows = entries[:, first].sum(axis=1)
        check(rows.max(initial=0.0) <= 1.0 + TOL, f"deduplicated row mass {rows.max()}")
        cols = entries.sum(axis=0)
        j = int(np.argmin(cols))
        check(rep.extra["j_star"] == j, "mutated column is not the lightest")
        per_round = 2.0 * float(np.sqrt(entries[:, j]).sum())
        cauchy = 2.0 * math.sqrt(t * float(cols[j]))
        check(rep.lhs <= per_round + TOL, f"gap {rep.lhs} > per-round bound {per_round}")
        check(rep.lhs <= cauchy + TOL, f"gap {rep.lhs} > Cauchy bound {cauchy}")
        distinct = len(set(orbit)) == T
        check(distinct or kind == "raw", "planted orbit is not distinct")
        if distinct:
            check(cols.min() <= t / T + TOL, f"min column {cols.min()} > t/T")
            check(rep.lhs <= 2.0 * t / math.sqrt(T) + TOL, "gap above 2t/sqrt(T)")

    def adversary(self, prog, T, seed, clock):
        q = self.q
        with clock:
            trace = q.build_hard_oracle(prog, T, EPSILON, seed)
            report = q.adversary_bound_report(prog, trace, T, EPSILON) if trace.succeeded else None
        check(trace.succeeded, f"haar trace exhausted at {trace.exhausted_at}")
        for i, step in enumerate(trace.steps):
            norm = float(np.linalg.norm(step.state.amplitudes))
            check(abs(norm - 1.0) <= TOL, f"step {i}: state norm {norm}")
        check(report.t == T - 1, "report round count")
        checked_rows_hold(report.rows, "haar adversary")

    def lemma2(self, prog, f, a, y, x, clock):
        q = self.q
        with clock:
            rep = q.lemma2_check(prog, f, a, y, x)
            final = q.run_final(prog, f, x)
        check(rep.lhs <= rep.rhs + TOL, f"lemma 2: {rep.lhs} > {rep.rhs}")
        norm = float(np.linalg.norm(final.amplitudes))
        check(abs(norm - 1.0) <= TOL, f"final state norm {norm}")

    def kron(self, state, gate, tau, n, memo, clock):
        with clock:
            out = self.q.apply_local_unitary(state, gate)
        if not memo:    # built on first use, so set-up does not include it
            memo["expected"] = dense_embedding(tau, n, gate.targets, gate.matrix) @ state.amplitudes
        err = float(np.abs(out.amplitudes - memo["expected"]).max())
        check(err <= 1e-12, f"gate differs from its dense embedding by {err}")


# ----------------------------------------------------------------------
# sweeps: many small trials through cli_main, with report files

def wilson(successes, trials, z):
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return center - half, center + half


@cache
def orbit_returns(n, T):
    """Width-n tables with f^T(0) = 0, counted by enumerating every table."""
    size = 1 << n
    return sum(1 for values in itertools.product(range(size), repeat=size)
               if walk(values, 0, T + 1)[T] == 0)


def flag(argv, name):
    return argv[argv.index(name) + 1]


def read_csv(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# The Monte Carlo rate is checked against a z = 5 Wilson interval: the 95%
# interval in the report misses the exact rate on one seed in twenty by
# construction, the z = 5 one on about one in 1.7 million.
MC_Z = 5.0
SWEEP_TRIALS = {"lemma1": 300, "lemma2": 100, "montecarlo": 400, "pigeonhole": 30,
                "adversary": 40}


class Sweeps:
    name = "sweeps"
    speed = "python"

    def __init__(self, q, seed, workdir):
        self.q = q
        self.dir = os.path.join(workdir, "sweeps")
        os.makedirs(self.dir, exist_ok=True)
        s = str(int(np.random.default_rng([seed, 3]).integers(1 << 31)))
        out = partial(os.path.join, self.dir)
        tr = {k: str(v) for k, v in SWEEP_TRIALS.items()}
        self.ops = [
            ("lemma1", partial(self.per_trial, ["lemma1", "--n", "3", "--trials", tr["lemma1"],
                                                "--seed", s, "--out", out("lemma1.csv")], 1)),
            ("lemma2", partial(self.per_trial, ["lemma2", "--n", "2", "--tau-work", "8",
                                                "--t", "6", "--trials", tr["lemma2"],
                                                "--seed", s, "--out", out("lemma2.csv")], 1)),
            ("montecarlo", partial(self.montecarlo, [
                "montecarlo", "--family", "truncated-emulation", "--n", "2", "--T", "3",
                "--trials", tr["montecarlo"], "--seed", s, "--out", out("montecarlo.csv")])),
            ("census-classical", partial(self.census, [
                "census", "--family", "classical-emulation", "--n", "2", "--T", "3",
                "--out", out("census-classical.csv")], lambda: 0.0)),
            ("census-truncated", partial(self.census, [
                "census", "--family", "truncated-emulation", "--n", "2", "--T", "3",
                "--out", out("census-truncated.csv")],
                lambda: 1.0 - orbit_returns(2, 3) / 256)),
            ("pigeonhole", partial(self.per_trial, [
                "pigeonhole", "--family", "random", "--n", "6", "--T", "16",
                "--trials", tr["pigeonhole"], "--seed", s, "--out", out("pigeonhole.csv")], 5)),
            ("adversary", partial(self.adversary, [
                "adversary", "--family", "random", "--n", "5", "--T", "2",
                "--trials", tr["adversary"], "--seed", s, "--out", out("adversary.csv")])),
        ]
        # Malformed inputs: the exit-status contract says 2 with a one-line
        # message.  These fail until the program maps the errors to it.
        bad_oracle = out("bad-oracle.txt")
        with open(bad_oracle, "w") as fh:
            fh.write("n=2\n00 01\n01 0x\n10 11\n11 00\n")
        bad_config = out("bad-config.json")
        with open(bad_config, "w") as fh:
            json.dump({"kind": "lemma1", "n": "3"}, fh)
        self.ops += [
            ("malformed-oracle-token", partial(self.usage_error, [
                "iterate", "--oracle", bad_oracle, "--x", "00", "--k", "1"], None)),
            ("malformed-config-type", partial(self.usage_error, [
                "lemma1", "--config", bad_config, "--trials", "1"], None)),
            ("malformed-qubit-cap", partial(self.usage_error, [
                "lemma1", "--n", "2", "--trials", "1"], "abc")),
            ("layout-over-cap", partial(self.usage_error, [
                "montecarlo", "--family", "classical-emulation", "--n", "6", "--T", "4",
                "--trials", "1"], None)),
        ]

    def cli(self, argv, clock):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with clock:
                code = self.q.cli.cli_main(argv)
        return code, err.getvalue()

    def ok(self, argv, clock):
        code, err = self.cli(argv, clock)
        if code != 0:
            raise OpFailed(f"{argv[0]} exited {code}: {err.strip()}")
        path = flag(argv, "--out")
        with open(os.path.splitext(path)[0] + ".json") as fh:
            return read_csv(path), json.load(fh)

    def no_violations(self, rows, where):
        bad = [r for r in rows if r["checked"] == "True" and float(r["slack"]) < -TOL]
        check(not bad, f"{where}: {len(bad)} checked rows violated")

    def per_trial(self, argv, rows_per_trial, clock):
        rows, _ = self.ok(argv, clock)
        trials = int(flag(argv, "--trials"))
        check(len(rows) == rows_per_trial * trials, f"{argv[0]}: {len(rows)} rows")
        self.no_violations(rows, argv[0])

    def montecarlo(self, argv, clock):
        rows, report = self.ok(argv, clock)
        trials = int(flag(argv, "--trials"))
        check(len(rows) == trials, f"montecarlo: {len(rows)} rows")
        # the truncated program never writes its output register, so every
        # success probability is exactly 0 or 1
        check(all(float(r["lhs"]) in (0.0, 1.0) for r in rows), "non-binary success")
        successes = sum(float(r["lhs"]) == 1.0 for r in rows)
        check(successes == report["aggregates"]["successes"], "success count")
        low, high = wilson(successes, trials, MC_Z)
        exact = orbit_returns(2, 3) / 256
        check(low <= exact <= high, f"rate {successes}/{trials} far from {exact}")

    def census(self, argv, expected_failing, clock):
        rows, report = self.ok(argv, clock)
        failing = expected_failing()
        check(len(rows) == 256 and report["total_oracles"] == 256, "census size")
        check(abs(report["failing_fraction"] - failing) <= 1e-12,
              f"{argv[2]} failing fraction {report['failing_fraction']} != {failing}")

    def adversary(self, argv, clock):
        rows, report = self.ok(argv, clock)
        trials = int(flag(argv, "--trials"))
        agg = report["aggregates"]
        check(agg["traces"] == trials, "adversary trace count")
        check(len({r["seed"] for r in rows}) == agg["succeeded"], "rows of succeeded traces")
        self.no_violations(rows, "adversary")

    def usage_error(self, argv, qubit_cap, clock):
        saved = os.environ.get("QQLAB_QUBIT_CAP")
        if qubit_cap is not None:
            os.environ["QQLAB_QUBIT_CAP"] = qubit_cap
        try:
            code, err = self.cli(argv, clock)
        except Exception as e:
            raise OpFailed(f"{argv[0]} raised {type(e).__name__}: {e}") from None
        finally:
            if saved is None:
                os.environ.pop("QQLAB_QUBIT_CAP", None)
            else:
                os.environ["QQLAB_QUBIT_CAP"] = saved
        lines = err.strip().splitlines()
        if code != 2 or len(lines) != 1:
            raise OpFailed(f"{argv[0]} exited {code} with {len(lines)} message lines")


WORKLOADS = {w.name: w for w in (Emulation, Haar, Sweeps)}
