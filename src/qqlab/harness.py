"""Experiment front door: seeded sweeps, exact census, Monte Carlo rates,
and report files.

Reports write a flat CSV (schema frozen below) and a nested JSON.  Trials
are sequential and every trial derives its own generator from
(master seed, kind, trial index), so a report is byte-reproducible from
its config alone; wall time goes only into the JSON.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .analysis import (GapReport, adversary_bound_report, build_hard_oracle,
                       lemma1_check, lemma2_check, pigeonhole_mutation_check)
from .errors import CapExceededError, ConfigError
from .oracles import BitWord, all_oracles, iterate, sample_uniform_oracle
from .programs import (QueryProgram, classical_emulation_program, random_program,
                       success_probability, truncate_after_query)
from .qsim import QubitLayout, StateVector, x_gate
from .rng import generator

CSV_SCHEMA = "context,lhs,rhs,slack,vacuous,checked,seed"
CSV_VERSION = "qqlab-report v1"
KINDS = ("lemma1", "lemma2", "adversary", "pigeonhole", "census", "montecarlo")
FAMILIES = ("classical-emulation", "truncated-emulation", "random", "concentrated")
DEFAULT_THRESHOLD = 2.0 / 3.0


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial rate."""
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
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.kind == "adversary":
            if self.T < 1:
                raise ConfigError("adversary runs need T >= 1")
            if self.t is not None and self.t != self.T - 1:
                raise ConfigError("adversary regime requires t = T - 1")
            if self.family == "classical-emulation":
                # build_program gives this family T queries; the hard oracle
                # is built against T - 1
                raise ConfigError("adversary runs need t = T - 1 queries; classical-emulation "
                                  "makes T, use truncated-emulation")
        if self.kind in ("pigeonhole", "montecarlo", "census") and self.T < 1:
            raise ConfigError(f"{self.kind} needs T >= 1")
        if self.kind == "census" and self.n > 2 and not self.allow_large_census:
            raise ConfigError("census beyond n=2 must be explicitly enabled")
        return self

    @classmethod
    def from_file(cls, path, kind: str | None = None) -> "ExperimentConfig":
        """Load fields from a JSON file; `kind` fills in when the file has
        none.  Validation is the caller's job (flags may still override)."""
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: not valid JSON: {e}") from None
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        known = set(cls.__dataclass_fields__)
        bad = set(obj) - known
        if bad:
            raise ConfigError(f"unknown config keys {sorted(bad)}")
        if "kind" not in obj:
            if kind is None:
                raise ConfigError("config file needs a 'kind' field")
            obj["kind"] = kind
        return cls(**obj)


def build_program(family: str, n: int, T: int, t: int | None,
                  tau_work: int, seed) -> QueryProgram:
    """Named program families used by the census and the sweeps."""
    if family == "classical-emulation":
        return classical_emulation_program(n, T)
    if family == "truncated-emulation":
        keep = T - 1 if t is None else t
        return truncate_after_query(classical_emulation_program(n, T), keep)
    if family == "random":
        rounds = (T - 1) if t is None else t
        return random_program(n, tau_work, rounds, seed)
    if family == "concentrated":
        # every pre-query state keeps its address register untouched, so all
        # query mass stays on the input word round after round
        rounds = (T - 1) if t is None else t
        layout = QubitLayout(max(tau_work, 1), n)
        flip = (x_gate(0),)
        return QueryProgram(layout, (), tuple(flip for _ in range(rounds)),
                            tuple(range(min(n, layout.total))))
    raise ConfigError(f"unknown program family {family!r}")


@dataclass
class ExperimentReport:
    config: ExperimentConfig
    rows: list[dict]
    aggregates: dict
    wall_time: float = 0.0

    def violation_rows(self, tol: float = 1e-9) -> list[dict]:
        return [r for r in self.rows if r["checked"] and r["slack"] < -tol]

    def to_csv(self) -> str:
        lines = [f"# {CSV_VERSION} kind={self.config.kind} master_seed={self.config.seed}",
                 CSV_SCHEMA]
        for r in self.rows:
            lines.append(",".join([
                r["context"], repr(float(r["lhs"])), repr(float(r["rhs"])),
                repr(float(r["slack"])), str(r["vacuous"]), str(r["checked"]),
                r["seed"],
            ]))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps({
            "config": asdict(self.config),
            "aggregates": self.aggregates,
            "wall_time_s": self.wall_time,
            "rows": self.rows,
        }, indent=1, default=_json_default)

    def write(self, csv_path) -> None:
        csv_path = Path(csv_path)
        csv_path.write_text(self.to_csv())
        csv_path.with_suffix(".json").write_text(self.to_json())


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _row(report: GapReport, seed_tag: str) -> dict:
    return {
        "context": report.context,
        "lhs": float(report.lhs),
        "rhs": float(report.rhs),
        "slack": float(report.slack),
        "vacuous": bool(report.vacuous),
        "checked": bool(report.checked),
        "seed": seed_tag,
        **{k: v for k, v in report.extra.items()},
    }


def _seed_tag(cfg: ExperimentConfig, trial: int) -> str:
    return f"{cfg.seed}/{cfg.kind}/{trial}"


def _random_state(layout: QubitLayout, rng) -> StateVector:
    amps = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return StateVector(layout, amps / np.linalg.norm(amps))


def _finish(cfg, rows, aggregates, started) -> ExperimentReport:
    checked = [r for r in rows if r["checked"]]
    slacks = [r["slack"] for r in checked]
    aggregates.setdefault("rows", len(rows))
    aggregates.setdefault("checked_rows", len(checked))
    aggregates["violations"] = sum(1 for r in checked if r["slack"] < -1e-9)
    if slacks:
        aggregates["min_slack"] = min(slacks)
        aggregates["mean_slack"] = float(np.mean(slacks))
    return ExperimentReport(cfg, rows, aggregates, wall_time=time.perf_counter() - started)


def run_lemma1_trials(cfg: ExperimentConfig) -> ExperimentReport:
    started = time.perf_counter()
    rows = []
    layout = QubitLayout(cfg.tau_work, cfg.n)
    for i in range(cfg.trials):
        rng = generator(cfg.seed, "lemma1", i)
        state = _random_state(layout, rng)
        f = sample_uniform_oracle(cfg.n, rng)
        g = sample_uniform_oracle(cfg.n, rng)
        rep = lemma1_check(state, f, g, context=f"query_change[n={cfg.n},trial={i}]")
        rows.append(_row(rep, _seed_tag(cfg, i)))
    return _finish(cfg, rows, {}, started)


def run_lemma2_trials(cfg: ExperimentConfig) -> ExperimentReport:
    started = time.perf_counter()
    rows = []
    t_max = cfg.t if cfg.t is not None else 6
    for i in range(cfg.trials):
        rng = generator(cfg.seed, "lemma2", i)
        t = int(rng.integers(0, t_max + 1))
        prog = random_program(cfg.n, cfg.tau_work, t, rng)
        f = sample_uniform_oracle(cfg.n, rng)
        a = BitWord(cfg.n, int(rng.integers(0, 1 << cfg.n)))
        y = BitWord(cfg.n, int(rng.integers(0, 1 << cfg.n)))
        if cfg.tau_work >= cfg.n:
            x = BitWord(cfg.n, int(rng.integers(0, 1 << cfg.n)))
        else:
            x = BitWord.zero(cfg.n)
        rep = lemma2_check(prog, f, a, y, x, context=f"hybrid[n={cfg.n},t={t},trial={i}]")
        rows.append(_row(rep, _seed_tag(cfg, i)))
    return _finish(cfg, rows, {}, started)


def _adversary_report(cfg: ExperimentConfig, trace_rows, extra: dict) -> ExperimentReport:
    """The trial loop of both adversary runners.  Each trial runs the
    construction and adds the rows trace_rows(trial, prog, trace) returns;
    the aggregates are the trace counts, then extra as trace_rows left it."""
    started = time.perf_counter()
    rows = []
    succeeded = 0
    exhaustion: dict[int, int] = {}
    for i in range(cfg.trials):
        prog = build_program(cfg.family, cfg.n, cfg.T, cfg.T - 1, cfg.tau_work,
                             generator(cfg.seed, "adversary-prog", i))
        trace = build_hard_oracle(prog, cfg.T, cfg.epsilon,
                                  generator(cfg.seed, "adversary", i))
        if trace.succeeded:
            succeeded += 1
        else:
            exhaustion[trace.exhausted_at] = exhaustion.get(trace.exhausted_at, 0) + 1
        rows.extend(trace_rows(i, prog, trace))
    low, high = wilson_interval(succeeded, cfg.trials)
    aggregates = {
        "traces": cfg.trials,
        "succeeded": succeeded,
        "success_rate": succeeded / cfg.trials,
        "success_wilson95": [low, high],
        "exhaustion_histogram": {str(k): v for k, v in sorted(exhaustion.items())},
        **extra,
    }
    return _finish(cfg, rows, aggregates, started)


def run_adversary_trials(cfg: ExperimentConfig) -> ExperimentReport:
    counts = {"premise_failures": 0, "raw_bound_violations": 0}

    def trace_rows(i, prog, trace):
        if not trace.succeeded:
            return []
        report = adversary_bound_report(prog, trace, cfg.T, cfg.epsilon)
        counts["premise_failures"] += sum(1 for p in report.premises if not p)
        counts["raw_bound_violations"] += len(report.raw_violations())
        tag = _seed_tag(cfg, i)
        rows = []
        if trace.t >= 1:
            rows.append(_row(GapReport(f"pivot_invariant[trial={i}]",
                                       trace.pivot_mass_max, trace.threshold), tag))
        for rep in report.rows:
            rows.append(_row(GapReport(f"{rep.context}[trial={i}]", rep.lhs, rep.rhs,
                                       checked=rep.checked, extra=rep.extra), tag))
        return rows

    return _adversary_report(cfg, trace_rows, counts)


def run_pigeonhole_trials(cfg: ExperimentConfig) -> ExperimentReport:
    started = time.perf_counter()
    rows = []
    t = cfg.t if cfg.t is not None else max(1, int(np.sqrt(cfg.T) / 2))
    changed = 0
    for i in range(cfg.trials):
        rng = generator(cfg.seed, "pigeonhole", i)
        prog = build_program(cfg.family, cfg.n, cfg.T, t, cfg.tau_work, rng)
        f = sample_uniform_oracle(cfg.n, rng)
        rep = pigeonhole_mutation_check(prog, f, cfg.T, BitWord.zero(cfg.n), rng)
        tag = _seed_tag(cfg, i)
        e = rep.extra
        changed += bool(e["result_changed"])
        distinct = bool(e["distinct_orbit"])
        rows.append(_row(GapReport(f"row_mass[trial={i}]", e["max_row_sum"], 1.0), tag))
        rows.append(_row(GapReport(f"column_floor[trial={i}]", e["column_sum"],
                                   e["column_limit"], checked=distinct), tag))
        rows.append(_row(GapReport(f"cauchy[trial={i}]", e["per_round_rhs"],
                                   e["cauchy_rhs"]), tag))
        rows.append(_row(GapReport(f"gap[trial={i}]", rep.lhs, rep.rhs,
                                   extra={"j_star": e["j_star"]}), tag))
        rows.append(_row(GapReport(f"gap_sqrtT[trial={i}]", rep.lhs, e["sqrtT_rhs"],
                                   checked=distinct), tag))
    aggregates = {"result_changed": changed, "t": t, "T": cfg.T}
    return _finish(cfg, rows, aggregates, started)


def run_montecarlo_trials(cfg: ExperimentConfig) -> ExperimentReport:
    """Success-rate sampling over the uniform oracle measure.

    One fixed program per config (the machine under study); only the oracle
    is redrawn per trial, so the measured rate estimates that machine's
    success set and can be checked against an exact census.
    """
    started = time.perf_counter()
    rows = []
    successes = 0
    zero = BitWord.zero(cfg.n)
    prog = build_program(cfg.family, cfg.n, cfg.T, cfg.t, cfg.tau_work,
                         generator(cfg.seed, "montecarlo-prog", 0))
    for i in range(cfg.trials):
        rng = generator(cfg.seed, "montecarlo", i)
        f = sample_uniform_oracle(cfg.n, rng)
        target = iterate(f, zero, cfg.T)
        p = success_probability(prog, f, zero, target)
        ok = p >= cfg.success_threshold
        successes += ok
        rows.append(_row(GapReport(f"success_prob[trial={i}]", float(p),
                                   cfg.success_threshold, checked=False,
                                   extra={"success": bool(ok)}),
                         _seed_tag(cfg, i)))
    low, high = wilson_interval(successes, cfg.trials)
    aggregates = {
        "successes": successes,
        "success_rate": successes / cfg.trials,
        "success_wilson95": [low, high],
    }
    return _finish(cfg, rows, aggregates, started)


@dataclass
class CensusReport:
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
        }, indent=1)

    def to_csv(self) -> str:
        lines = [f"# {CSV_VERSION} kind=census family={self.family} "
                 f"n={self.n} t={self.t} T={self.T}",
                 "oracle_index,success_probability,success"]
        for i, p in enumerate(self.probabilities):
            lines.append(f"{i},{p!r},{p >= self.threshold}")
        return "\n".join(lines) + "\n"

    def write(self, csv_path) -> None:
        csv_path = Path(csv_path)
        csv_path.write_text(self.to_csv())
        csv_path.with_suffix(".json").write_text(self.to_json())


def exact_census(family, n: int, T: int, t: int | None = None,
                 threshold: float = DEFAULT_THRESHOLD,
                 allow_large: bool = False) -> CensusReport:
    """Exact success probability on every one of the 2**(n*2**n) oracles.

    The target for oracle f is the T-th orbit word of the all-zero input.
    Gated to n <= 2 (256 oracles) unless allow_large is set: n = 3 already
    means 2**24 oracles.
    """
    if n > 2 and not allow_large:
        raise CapExceededError(f"census over 2**{n * 2 ** n} oracles needs allow_large=True")
    if isinstance(family, QueryProgram):
        prog, family_name = family, "custom"
    else:
        prog, family_name = build_program(family, n, T, t, 0, 0), family
    zero = BitWord.zero(n)
    probs = []
    for f in all_oracles(n):
        target = iterate(f, zero, T)
        probs.append(success_probability(prog, f, zero, target))
    return CensusReport(n, prog.query_count, T, family_name, threshold,
                        2 ** (n * 2 ** n), probs)


def adversary_success_rate(family: str, n: int, T: int, epsilon: float,
                           trials: int, seed: int, tau_work: int = 2) -> ExperimentReport:
    """Fraction of construction runs that never empty their candidate set."""
    cfg = ExperimentConfig(kind="adversary", n=n, T=T, epsilon=epsilon,
                           trials=trials, seed=seed, family=family,
                           tau_work=tau_work).validate()

    def trace_rows(i, prog, trace):
        return [{
            "context": f"trace[trial={i}]",
            "lhs": float(trace.succeeded), "rhs": 0.0, "slack": 0.0,
            "vacuous": False, "checked": False, "seed": _seed_tag(cfg, i),
            "exhausted_at": trace.exhausted_at,
        }]

    return _adversary_report(cfg, trace_rows, {})


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
