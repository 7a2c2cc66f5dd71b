"""Command-line front end.

Exit status: 0 on success, 1 if any checked inequality row has slack below
-1e-9 (or a recorded identity fails), 2 on usage and input errors: bad
flags, malformed oracle or config files, a bad QQLAB_QUBIT_CAP, or a
layout over the qubit cap.

Flag precedence: explicit flags > --config file > built-in defaults.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .errors import (CapExceededError, InputError, LengthMismatchError, QqlabError,
                     WidthMismatchError)
from .harness import (CSV_SCHEMA, CSV_VERSION, FAMILIES, ExperimentConfig,
                      exact_census, monte_carlo)
from .oracles import BitWord, iterate, load_oracle
from .qsim import qubit_cap


def _count(text: str) -> int:
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {k}")
    return k


def _add_common(p, needs_T=False, seeded=True):
    p.add_argument("--n", type=int, help="query word width (default 2)")
    if seeded:
        p.add_argument("--tau-work", type=int, help="working qubits (default 2)")
        p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--trials", type=int, help="number of trials (default 100)")
    p.add_argument("--out", help="CSV output path (a .json sibling is written too)")
    p.add_argument("--config", help="JSON config file; explicit flags override it")
    p.add_argument("--family", choices=FAMILIES, help="program family")
    if needs_T:
        p.add_argument("--T", type=int, dest="T", help="iteration count")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qqlab",
        description="Quantum query computation laboratory: seeded inequality "
                    "sweeps, adversarial oracle constructions, and exact census "
                    "experiments over black-box functions.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lemma1", help="single-query oracle-change inequality sweep")
    _add_common(p)

    p = sub.add_parser("lemma2", help="single-word mutation hybrid bound sweep")
    _add_common(p)
    p.add_argument("--t", type=int, help="maximum rounds per random program (default 6)")

    p = sub.add_parser("adversary", help="hard-oracle construction and bound report")
    _add_common(p, needs_T=True)
    p.add_argument("--epsilon", type=float, help="threshold exponent offset (default 1)")

    p = sub.add_parser("pigeonhole", help="orbit query-mass matrix mutation check")
    _add_common(p, needs_T=True)
    p.add_argument("--t", type=int, help="rounds (default ~ sqrt(T)/2)")

    p = sub.add_parser("census", help="exact success census over every oracle")
    # census programs are built with no working qubits and no seed
    _add_common(p, needs_T=True, seeded=False)
    p.add_argument("--t", type=int, help="rounds for truncated families")
    p.add_argument("--threshold", type=float, help="success threshold (default 2/3)")
    p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("montecarlo", help="success-rate sampling over random oracles")
    _add_common(p, needs_T=True)
    p.add_argument("--t", type=int)
    p.add_argument("--threshold", type=float, help="success threshold (default 2/3)")

    p = sub.add_parser("iterate", help="apply an oracle file k times to a word")
    p.add_argument("--oracle", required=True, help="oracle text file")
    p.add_argument("--x", required=True, help="input word as bits, e.g. 010")
    p.add_argument("--k", type=_count, required=True)

    sub.add_parser("info", help="print version, qubit cap and conventions")
    return ap


# config field -> CLI attribute
_FIELD_TO_FLAG = {
    "n": "n", "tau_work": "tau_work", "t": "t", "T": "T", "epsilon": "epsilon",
    "trials": "trials", "seed": "seed", "success_threshold": "threshold",
    "family": "family", "output_path": "out",
}

_CLI_DEFAULTS = {"trials": 100}


def _config_from_args(kind: str, args) -> ExperimentConfig:
    values = {"kind": kind, **_CLI_DEFAULTS}
    if getattr(args, "config", None):
        file_cfg = ExperimentConfig.from_file(args.config, kind=kind)
        values.update({k: v for k, v in file_cfg.__dict__.items() if k != "kind"})
    for field, attr in _FIELD_TO_FLAG.items():
        if getattr(args, attr, None) is not None:
            values[field] = getattr(args, attr)
    if kind == "census":
        values.setdefault("family", "classical-emulation")
        values.setdefault("T", 3)
        values["trials"] = values.get("trials") or 1
        values["allow_large_census"] = bool(getattr(args, "allow_large", False))
    return ExperimentConfig(**values).validate()


def _print_summary(report) -> int:
    agg = report.aggregates
    for key in ("rows", "checked_rows", "violations", "min_slack", "success_rate",
                "success_wilson95", "succeeded", "premise_failures"):
        if key in agg:
            print(f"{key}: {agg[key]}")
    bad = report.violation_rows()
    if bad:
        for r in bad[:10]:
            print(f"VIOLATION {r['context']}: lhs={r['lhs']} rhs={r['rhs']}",
                  file=sys.stderr)
        return 1
    return 0


def cli_main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2

    try:
        if args.command == "info":
            print(f"qqlab {__version__}")
            print(f"qubit cap: {qubit_cap()} (override with QQLAB_QUBIT_CAP)")
            print("index encoding: address word in the lowest n index bits, answer "
                  "half in the next n, working register on top; words read "
                  "most-significant-bit first")
            print(f"csv schema: {CSV_VERSION}: {CSV_SCHEMA}")
            return 0

        if args.command == "iterate":
            f = load_oracle(args.oracle)
            x = BitWord.from_string(args.x)
            print(iterate(f, x, args.k))
            return 0

        if args.command == "census":
            cfg = _config_from_args("census", args)
            report = exact_census(cfg.family, cfg.n, cfg.T, t=cfg.t,
                                  threshold=cfg.success_threshold,
                                  allow_large=cfg.allow_large_census)
            print(f"total oracles: {report.total_oracles}")
            print(f"failing fraction: {report.failing_fraction}")
            if cfg.output_path:
                report.write(cfg.output_path)
            return 0

        cfg = _config_from_args(args.command, args)
        report = monte_carlo(cfg)
        return _print_summary(report)

    # width and length mismatches reach here only from the words and oracle
    # files given on the command line
    except (InputError, CapExceededError, WidthMismatchError, LengthMismatchError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except QqlabError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
