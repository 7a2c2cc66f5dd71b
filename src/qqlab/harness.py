"""Experiment front door: seeded sweeps, exact census, Monte Carlo rates,
and report files.

Every sweep kind runs through one trial loop (`_sweep`): a kind is a
function giving trial i's inequality rows and a small outcome, plus a
function turning the outcomes into its aggregates.  Trials are sequential
and each derives its generators from (master seed, stream, trial index),
so a report is byte-reproducible from its config alone; wall time goes
only into the JSON.  The census and montecarlo kinds hand `_success_walk`
plain rows of oracle values (the census's in `all_oracles`' order), and it
steps the rows that agree on the words a state carries together, with each
oracle's own bits.  Both report types write a flat CSV (schema frozen
below) and a nested JSON beside it through one `write`, which refuses a
CSV path ending in .json; `validate` refuses one before any trial runs.
Report numbers are plain Python ints and floats: `validate` and
`exact_census` turn numpy's into them where they enter, and every runner
takes a validated config, so both JSON files are plain `json.dumps`.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .analysis import (TOL, GapReport, _alpha_threshold, adversary_bound_report,
                       build_hard_oracle, lemma1_check, lemma2_check, pigeonhole_mutation_check)
from .errors import CapExceededError, ConfigError, InputError, WidthMismatchError
from .oracles import BitWord, OracleTable, _iterates, sample_uniform_oracle
from .programs import (QueryProgram, classical_emulation_program, initial_state,
                       output_distribution, random_program, refuse_oversize, truncate_after_query)
from .qsim import QubitLayout, StateVector, apply_round, occupied_words, x_gate
from .rng import generator

CSV_SCHEMA = "context,lhs,rhs,slack,vacuous,checked,seed"
CSV_VERSION = "qqlab-report v1"
# the config fields each experiment kind reads (besides kind); config files
# and the command line accept only these
KIND_FIELDS = {
    "lemma1": ("n", "tau_work", "trials", "seed", "output_path"),
    "lemma2": ("n", "tau_work", "t", "trials", "seed", "output_path"),
    "adversary": ("family", "n", "tau_work", "T", "epsilon", "trials", "seed", "output_path"),
    "pigeonhole": ("family", "n", "tau_work", "T", "t", "trials", "seed", "output_path"),
    "census": ("family", "n", "T", "t", "success_threshold", "allow_large_census",
               "output_path"),
    "montecarlo": ("family", "n", "tau_work", "T", "t", "success_threshold", "trials",
                   "seed", "output_path"),
}
KINDS = tuple(KIND_FIELDS)
FAMILIES = ("classical-emulation", "truncated-emulation", "random", "concentrated")
DEFAULT_THRESHOLD = 2.0 / 3.0
_WALK_CHUNK = 1 << 12  # the success walk's oracles at a time: a census never holds 2**24


def wilson_interval(successes: int, trials: int):
    """95% Wilson score interval for a binomial rate."""
    z = 1.959963984540054  # the two-sided 95% normal quantile
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    low = 0.0 if successes == 0 else max(0.0, float(center - half))
    high = 1.0 if successes == trials else min(1.0, float(center + half))
    return (low, high)


_INT = ((Integral,), "an integer")
_NUMBER = ((Real,), "a number")
_TEXT = ((str,), "a string")
_FIELD_TYPES = {
    "kind": _TEXT, "n": _INT, "tau_work": _INT,
    "t": ((Integral, type(None)), "an integer or null"),
    "T": _INT, "epsilon": _NUMBER, "trials": _INT, "seed": _INT,
    "success_threshold": _NUMBER, "family": _TEXT,
    "output_path": ((str, type(None)), "a string or null"),
    "allow_large_census": ((bool,), "true or false"),
}


@dataclass
class ExperimentConfig:
    kind: str
    n: int = 2
    tau_work: int = 2
    t: int | None = None
    T: int = 2
    epsilon: float = 1.0
    trials: int = 1
    seed: int = 0
    success_threshold: float = DEFAULT_THRESHOLD
    family: str = "random"
    output_path: str | None = None
    allow_large_census: bool = False

    def validate(self) -> "ExperimentConfig":
        for name, (types, wanted) in _FIELD_TYPES.items():
            value = getattr(self, name)
            # bool is an Integral, so a JSON true would otherwise pass as 1
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                raise ConfigError(f"{name} must be {wanted}, got {value!r}")
            if isinstance(value, Real) and not isinstance(value, bool):  # numpy's made plain
                setattr(self, name, int(value) if isinstance(value, Integral) else float(value))
        if self.kind not in KINDS:
            raise ConfigError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0.0 < self.success_threshold <= 1.0:
            raise ConfigError("success threshold must be in (0, 1]")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if self.tau_work < 0 or self.seed < 0 or (self.t is not None and self.t < 0):
            raise ConfigError("tau_work, seed and t must be >= 0")
        # lemma2 trials draw their t as an int64; a pigeonhole mass matrix
        # indexes its T orbit steps by int64
        if self.t is not None and self.t >= 1 << 63:
            raise ConfigError(f"t must be below 2**63, got {self.t}")
        if self.kind == "pigeonhole" and self.T >= 1 << 63:
            raise ConfigError(f"pigeonhole runs need T below 2**63, got {self.T}")
        if not -math.inf < self.epsilon < math.inf:
            raise ConfigError(f"epsilon must be finite, got {self.epsilon!r}")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if "family" in KIND_FIELDS[self.kind]:
            if self.T < 1:
                raise ConfigError(f"{self.kind} runs need T >= 1")
            rounds = _family_rounds(self.family, self.T, self.t, self.T - 1)
            if self.kind == "adversary" and rounds != self.T - 1:
                # the hard oracle is built against T - 1 queries
                raise ConfigError(f"adversary runs need t = T - 1 queries, {self.family} would "
                                  f"make {rounds} (truncated-emulation is classical-emulation "
                                  "cut to T - 1)")
            if self.kind == "adversary":
                try:
                    _alpha_threshold(self.T, self.epsilon)
                except ValueError as e:
                    raise ConfigError(str(e)) from None
        if self.kind == "census" and self.n > 2 and not self.allow_large_census:
            raise ConfigError("census beyond n=2 must be explicitly enabled")
        if self.output_path:
            _csv_path(self.output_path)
        return self

    @classmethod
    def from_file(cls, path, kind: str | None = None) -> "ExperimentConfig":
        """Load a config file (see `read_config`); fields it leaves out take
        the defaults.  Validation is the caller's job."""
        return cls(**read_config(path, kind))


def read_config(path, kind: str | None = None) -> dict:
    """The fields a JSON config file sets, kind included.  `kind` fills in
    when the file has none and must match the file's when both are given;
    the file may set only the fields its kind reads (KIND_FIELDS), so an
    unknown key is refused too."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"{path}: not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    file_kind = obj.setdefault("kind", kind)
    if file_kind not in KINDS:
        raise ConfigError(f"config file needs a 'kind' field, one of {KINDS}")
    if kind is not None and file_kind != kind:
        raise ConfigError(f"config file is for {file_kind!r}, not {kind!r}")
    unread = sorted(set(obj) - {"kind", *KIND_FIELDS[file_kind]})
    if unread:
        raise ConfigError(f"config keys {unread} are not fields a {file_kind} run reads")
    return obj


def _family_rounds(family: str, T: int, t: int | None, default: int | None) -> int:
    """The round count of a family's programs for T: classical-emulation
    makes T and takes no other t; any other family keeps t rounds, or
    `default` when t is None, and truncated-emulation at most T."""
    if family == "classical-emulation":
        if t not in (None, T):
            raise ConfigError(f"classical-emulation makes T = {T} queries, cannot take t = {t}")
        return T
    rounds = default if t is None else t
    if family == "truncated-emulation" and rounds > T:
        raise ConfigError(f"truncated-emulation has T = {T} rounds, cannot keep t = {rounds}")
    return rounds


def build_program(family: str, n: int, T: int, t: int | None,
                  tau_work: int, seed) -> QueryProgram:
    """Named program families used by the census and the sweeps."""
    rounds = _family_rounds(family, T, t, T - 1)
    if family == "classical-emulation":
        return classical_emulation_program(n, T)
    if family == "truncated-emulation":
        return truncate_after_query(classical_emulation_program(n, T), rounds)
    if family == "random":
        return random_program(n, tau_work, rounds, seed)
    if family == "concentrated":
        # every pre-query state keeps its address register untouched, so all
        # query mass stays on the input word round after round
        refuse_oversize(rounds, 180, "a program of {} rounds")  # measured: about 180 B a round
        layout = QubitLayout(max(tau_work, 1), n)
        flip = (x_gate(0),)
        return QueryProgram(layout, (), tuple(flip for _ in range(rounds)),
                            tuple(range(min(n, layout.total))))
    raise ConfigError(f"unknown program family {family!r}")


def _csv_path(path) -> Path:
    """The report's CSV path; one ending in .json is refused, as its own JSON sibling."""
    if Path(path).suffix == ".json":
        raise InputError(f"output path {path!r} ends in .json, where its JSON report goes")
    return Path(path)


class _ReportFiles:
    def write(self, csv_path) -> None:
        """The CSV at csv_path, and the JSON beside it with the suffix .json."""
        csv_path = _csv_path(csv_path)
        csv_path.write_text(self.to_csv())
        csv_path.with_suffix(".json").write_text(self.to_json())


@dataclass
class ExperimentReport(_ReportFiles):
    config: ExperimentConfig
    rows: list[dict]
    aggregates: dict
    wall_time: float = 0.0

    def violation_rows(self) -> list[dict]:
        return [r for r in self.rows if r["checked"] and r["slack"] < -TOL]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(f"# {CSV_VERSION} kind={self.config.kind} master_seed={self.config.seed}\n"
                  f"{CSV_SCHEMA}\n")
        csv.writer(out, lineterminator="\n").writerows(  # quotes a context with a comma
            [r["context"], repr(float(r["lhs"])), repr(float(r["rhs"])),
             repr(float(r["slack"])), r["vacuous"], r["checked"], r["seed"]] for r in self.rows)
        return out.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "config": asdict(self.config),
            "aggregates": self.aggregates,
            "wall_time_s": self.wall_time,
            "rows": self.rows,
        })


def _row(report: GapReport, seed_tag: str) -> dict:
    # GapReport holds floats and bools already; extra may override a column
    return {"context": report.context, "lhs": report.lhs, "rhs": report.rhs,
            "slack": report.slack, "vacuous": report.vacuous, "checked": report.checked,
            "seed": seed_tag, **report.extra}


def _sweep(cfg: ExperimentConfig, trial, aggregates=lambda outcomes: {}) -> ExperimentReport:
    """The trial loop of every sweep kind.  trial(i) returns trial i's
    GapReports and a small outcome; the aggregates are aggregates(outcomes)
    followed by the summary of the checked rows."""
    started = time.perf_counter()
    rows, outcomes = [], []
    for i in range(cfg.trials):
        reports, outcome = trial(i)
        rows.extend(_row(rep, f"{cfg.seed}/{cfg.kind}/{i}") for rep in reports)
        outcomes.append(outcome)
    agg = aggregates(outcomes)
    slacks = [r["slack"] for r in rows if r["checked"]]
    agg.update(rows=len(rows), checked_rows=len(slacks),
               violations=sum(1 for s in slacks if s < -TOL))
    if slacks:
        agg.update(min_slack=min(slacks), mean_slack=float(np.mean(slacks)))
    return ExperimentReport(cfg, rows, agg, wall_time=time.perf_counter() - started)


def _rate(name: str, hits: int, trials: int) -> dict:
    """The hit count under the kind's own key, the rate and its Wilson interval."""
    return {name: hits, "success_rate": hits / trials,
            "success_wilson95": list(wilson_interval(hits, trials))}


def run_lemma1_trials(cfg: ExperimentConfig) -> ExperimentReport:
    layout = QubitLayout(cfg.tau_work, cfg.n)

    def trial(i):
        rng = generator(cfg.seed, "lemma1", i)
        amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
        state = StateVector(layout, amps / StateVector(layout, amps).norm)
        f = sample_uniform_oracle(cfg.n, rng)
        g = sample_uniform_oracle(cfg.n, rng)
        return [lemma1_check(state, f, g, context=f"query_change[n={cfg.n},trial={i}]")], None

    return _sweep(cfg, trial)


def run_lemma2_trials(cfg: ExperimentConfig) -> ExperimentReport:
    t_max = cfg.t if cfg.t is not None else 6

    def trial(i):
        rng = generator(cfg.seed, "lemma2", i)
        t = int(rng.integers(0, t_max + 1))
        prog = random_program(cfg.n, cfg.tau_work, t, rng)
        f = sample_uniform_oracle(cfg.n, rng)
        a = BitWord(cfg.n, int(rng.integers(0, 1 << cfg.n)))
        y = BitWord(cfg.n, int(rng.integers(0, 1 << cfg.n)))
        x = BitWord(cfg.n, int(rng.integers(0, 1 << cfg.n)) if cfg.tau_work >= cfg.n else 0)
        context = f"hybrid[n={cfg.n},t={t},trial={i}]"
        return [lemma2_check(prog, f, a, y, x, context=context)], None

    return _sweep(cfg, trial)


def _hard_oracle(cfg: ExperimentConfig, i: int):
    """Trial i of the adversary kind: its program and construction trace."""
    prog = build_program(cfg.family, cfg.n, cfg.T, cfg.T - 1, cfg.tau_work,
                         generator(cfg.seed, "adversary-prog", i))
    trace = build_hard_oracle(prog, cfg.T, cfg.epsilon, generator(cfg.seed, "adversary", i))
    return prog, trace


def _trace_aggregates(exhausted) -> dict:
    """Aggregates of both adversary runners, from each trace's exhausted_at
    (None when the construction succeeded)."""
    failed = Counter(e for e in exhausted if e is not None)
    return {"traces": len(exhausted),
            **_rate("succeeded", len(exhausted) - failed.total(), len(exhausted)),
            "exhaustion_histogram": {str(k): failed[k] for k in sorted(failed)}}


def run_adversary_trials(cfg: ExperimentConfig) -> ExperimentReport:
    def trial(i):
        prog, trace = _hard_oracle(cfg, i)
        if not trace.succeeded:
            return [], (trace.exhausted_at, 0, 0)
        report = adversary_bound_report(prog, trace, cfg.T, cfg.epsilon)
        reports = [GapReport(f"pivot_invariant[trial={i}]", trace.pivot_mass_max,
                             trace.threshold)] if trace.t >= 1 else []
        reports += [GapReport(f"{rep.context}[trial={i}]", rep.lhs, rep.rhs,
                              checked=rep.checked, extra=rep.extra) for rep in report.rows]
        premise_failures = sum(1 for p in report.premises if not p)
        return reports, (None, premise_failures, len(report.raw_violations()))

    def aggregates(outcomes):
        exhausted, premise_failures, raw_violations = zip(*outcomes)
        return {**_trace_aggregates(exhausted), "premise_failures": sum(premise_failures),
                "raw_bound_violations": sum(raw_violations)}

    return _sweep(cfg, trial, aggregates)


def run_pigeonhole_trials(cfg: ExperimentConfig) -> ExperimentReport:
    t = _family_rounds(cfg.family, cfg.T, cfg.t,
                       max(1, int(np.sqrt(cfg.T) / 2)) if cfg.t is None else None)

    def trial(i):
        rng = generator(cfg.seed, "pigeonhole", i)
        prog = build_program(cfg.family, cfg.n, cfg.T, t, cfg.tau_work, rng)
        f = sample_uniform_oracle(cfg.n, rng)
        rep = pigeonhole_mutation_check(prog, f, cfg.T, BitWord.zero(cfg.n), rng)
        e = rep.extra
        distinct = bool(e["distinct_orbit"])
        return [
            GapReport(f"row_mass[trial={i}]", e["max_row_sum"], 1.0),
            GapReport(f"column_floor[trial={i}]", e["column_sum"], e["column_limit"],
                      checked=distinct),
            GapReport(f"cauchy[trial={i}]", e["per_round_rhs"], e["cauchy_rhs"]),
            GapReport(f"gap[trial={i}]", rep.lhs, rep.rhs, extra={"j_star": e["j_star"]}),
            GapReport(f"gap_sqrtT[trial={i}]", rep.lhs, e["sqrtT_rhs"], checked=distinct),
        ], (bool(e["result_changed"]), prog.query_count)

    def aggregates(outcomes):
        changed, rounds = zip(*outcomes)
        return {"result_changed": sum(changed), "t": rounds[0], "T": cfg.T}

    return _sweep(cfg, trial, aggregates)


def _success_walk(prog: QueryProgram, rows, T: int):
    """`success_probability` of prog on each row of oracle values of an iterator,
    from the all-zero input to its T-th orbit word, bit for bit.  Each _WALK_CHUNK
    rows are one array, with targets from `_iterates`; a depth-first walk steps
    those that agree on every word a state carries (`occupied_words`) together,
    under one member's `OracleTable`, holding at most t + 1 states."""
    n = prog.layout.query_width
    if len(prog.output_region) != n:  # each target is a word of the query width
        raise WidthMismatchError(f"output region size {len(prog.output_region)} != {n}")
    if T < 0:
        raise ValueError("iteration count must be nonnegative")
    root = apply_round(initial_state(prog.layout, BitWord.zero(n)), None, prog.blocks[0])
    while chunk := list(itertools.islice(rows, _WALK_CHUNK)):
        table = np.array(chunk, dtype=np.int64)
        if table.shape[1] != 1 << n:
            raise WidthMismatchError(f"rows of {table.shape[1]} values != query width {n}")
        targets = _iterates(table, 0, T)
        out, path = np.empty(len(chunk)), []  # path: (state, its children's oracle groups)

        def visit(state, members):
            if len(path) == prog.query_count:
                out[members] = output_distribution(prog, state)[targets[members]]
                return
            groups = {}
            for j, key in zip(members, map(bytes, table[members][:, occupied_words(state)])):
                groups.setdefault(key, []).append(j)
            path.append((state, iter(groups.values())))

        visit(root, range(len(chunk)))
        while path:  # step the top state's next oracle group, or leave it when none is left
            members = next(path[-1][1], None)
            if members is None:
                path.pop()
            else:
                f = OracleTable(n, table[members[0]])
                visit(apply_round(path[-1][0], f, prog.blocks[len(path)]), members)
        yield from out.tolist()


def run_montecarlo_trials(cfg: ExperimentConfig) -> ExperimentReport:
    """Success-rate sampling over the uniform oracle measure.

    One fixed program per config (the machine under study); only the oracle
    is redrawn per trial, so the measured rate estimates that machine's
    success set and can be checked against an exact census.
    """
    prog = build_program(cfg.family, cfg.n, cfg.T, cfg.t, cfg.tau_work,
                         generator(cfg.seed, "montecarlo-prog", 0))

    probs = _success_walk(prog, (sample_uniform_oracle(cfg.n, generator(cfg.seed, "montecarlo", i))
                                 .values for i in range(cfg.trials)), cfg.T)

    def trial(i):
        p = next(probs)  # trial i's, as _sweep runs the trials in order
        ok = p >= cfg.success_threshold
        return [GapReport(f"success_prob[trial={i}]", p, cfg.success_threshold,
                          checked=False, extra={"success": ok})], ok

    return _sweep(cfg, trial, lambda oks: _rate("successes", sum(oks), cfg.trials))


@dataclass
class CensusReport(_ReportFiles):
    """Exact success probabilities over every oracle of one width."""

    n: int
    t: int
    T: int
    family: str
    threshold: float
    total_oracles: int
    probabilities: list[float] = field(repr=False)
    failing_fraction: float = 0.0

    def __post_init__(self):
        failing = sum(1 for p in self.probabilities if p < self.threshold)
        self.failing_fraction = failing / self.total_oracles

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "t": self.t, "T": self.T, "family": self.family,
            "threshold": self.threshold, "total_oracles": self.total_oracles,
            "failing_fraction": self.failing_fraction,
            "probabilities": self.probabilities,
        })

    def to_csv(self) -> str:
        lines = [f"# {CSV_VERSION} kind=census family={self.family} "
                 f"n={self.n} t={self.t} T={self.T}",
                 "oracle_index,success_probability,success"]
        lines += (f"{i},{p!r},{p >= self.threshold}" for i, p in enumerate(self.probabilities))
        return "\n".join(lines) + "\n"


def exact_census(family, n: int, T: int, t: int | None = None,
                 threshold: float = DEFAULT_THRESHOLD,
                 allow_large: bool = False) -> CensusReport:
    """Exact success probability on every one of the 2**(n*2**n) oracles,
    of a family's program or of a built one (reported as "custom").

    The target for oracle f is the T-th orbit word of the all-zero input.
    Gated to n <= 2 (256 oracles; n = 3 has 2**24) unless allow_large is set.
    """
    n, T, threshold = operator.index(n), operator.index(T), float(threshold)
    t = None if t is None else operator.index(t)
    if n > 2 and not allow_large:
        raise CapExceededError(f"census over 2**{n * 2 ** n} oracles needs allow_large=True")
    refuse_oversize(2 ** (n * 2 ** n), 8, "a census of {} oracles")  # 8 B a probability
    prog, family_name = ((family, "custom") if isinstance(family, QueryProgram)
                         else (build_program(family, n, T, t, 0, 0), family))
    probs = list(_success_walk(prog, itertools.product(range(1 << n), repeat=1 << n), T))
    return CensusReport(n, prog.query_count, T, family_name, threshold,
                        2 ** (n * 2 ** n), probs)


def adversary_success_rate(family: str, n: int, T: int, epsilon: float,
                           trials: int, seed: int, tau_work: int = 2) -> ExperimentReport:
    """Fraction of construction runs that never empty their candidate set."""
    cfg = ExperimentConfig(kind="adversary", n=n, T=T, epsilon=epsilon,
                           trials=trials, seed=seed, family=family,
                           tau_work=tau_work).validate()

    def trial(i):
        at = _hard_oracle(cfg, i)[1].exhausted_at
        # the row records the outcome, not an inequality: extra pins its slack to 0
        row = GapReport(f"trace[trial={i}]", at is None, 0.0, checked=False,
                        extra={"slack": 0.0, "exhausted_at": at})
        return [row], at

    return _sweep(cfg, trial, _trace_aggregates)


_RUNNERS = {
    "lemma1": run_lemma1_trials,
    "lemma2": run_lemma2_trials,
    "adversary": run_adversary_trials,
    "pigeonhole": run_pigeonhole_trials,
    "montecarlo": run_montecarlo_trials,
}


def monte_carlo(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch a seeded multi-trial experiment and optionally write reports."""
    config.validate()
    if config.kind == "census":
        raise ConfigError("use exact_census for the census kind")
    report = _RUNNERS[config.kind](config)
    if config.output_path:
        report.write(config.output_path)
    return report
