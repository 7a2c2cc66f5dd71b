"""Command-line front end.

Exit status: 0 on success, 1 if any checked inequality row has slack below
-1e-9 (or a recorded identity fails), 2 on usage and input errors: bad
flags, malformed oracle or config files, a bad QQLAB_QUBIT_CAP, a layout
over the qubit cap, or a state or program too large for memory.

Each experiment kind takes the flags, and a --config file the fields, that
it reads (harness.KIND_FIELDS); anything else exits 2.  Precedence:
explicit flags > fields the --config file sets > built-in defaults.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
from .errors import (CapExceededError, InputError, LengthMismatchError, QqlabError,
                     WidthMismatchError)
from .harness import (CSV_SCHEMA, CSV_VERSION, FAMILIES, KIND_FIELDS, ExperimentConfig,
                      exact_census, monte_carlo, read_config)
from .oracles import BitWord, iterate, load_oracle
from .qsim import qubit_cap


def _count(text: str) -> int:
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {k}")
    return k


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, f"error: {message}\n")


# config field -> its flag and argparse keywords; each experiment kind takes
# the flags of the fields it reads (KIND_FIELDS), plus --config
_FLAGS = {
    "family": ("--family", {"choices": FAMILIES, "help": "program family"}),
    "n": ("--n", {"type": int, "help": "query word width (default 2)"}),
    "tau_work": ("--tau-work", {"type": int, "help": "working qubits (default 2)"}),
    "T": ("--T", {"type": int, "help": "iteration count"}),
    "t": ("--t", {"type": int, "help": "rounds (default T - 1; lemma2: at most 6; "
                                       "pigeonhole: ~ sqrt(T)/2)"}),
    "epsilon": ("--epsilon", {"type": float, "help": "threshold exponent offset (default 1)"}),
    "success_threshold": ("--threshold", {"type": float,
                                          "help": "success threshold (default 2/3)"}),
    "allow_large_census": ("--allow-large", {"action": "store_const", "const": True,
                                             "help": "allow a census beyond n=2"}),
    "trials": ("--trials", {"type": int, "help": "number of trials (default 100)"}),
    "seed": ("--seed", {"type": int, "help": "master seed (default 0)"}),
    "output_path": ("--out", {"help": "CSV output path (a .json sibling is written too)"}),
}
_HELP = {
    "lemma1": "single-query oracle-change inequality sweep",
    "lemma2": "single-word mutation hybrid bound sweep",
    "adversary": "hard-oracle construction and bound report",
    "pigeonhole": "orbit query-mass matrix mutation check",
    "census": "exact success census over every oracle",
    "montecarlo": "success-rate sampling over random oracles",
}


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing keeps no state)."""
    return _parser()


@functools.cache
def _parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="qqlab",
        description="Quantum query computation laboratory: seeded inequality "
                    "sweeps, adversarial oracle constructions, and exact census "
                    "experiments over black-box functions.")
    sub = ap.add_subparsers(dest="command", required=True)
    for kind, fields in KIND_FIELDS.items():
        p = sub.add_parser(kind, help=_HELP[kind])
        for name in fields:
            flag, kwargs = _FLAGS[name]
            p.add_argument(flag, dest=name, **kwargs)
        p.add_argument("--config", help="JSON config file; explicit flags override it")

    p = sub.add_parser("iterate", help="apply an oracle file k times to a word")
    p.add_argument("--oracle", required=True, help="oracle text file")
    p.add_argument("--x", required=True, help="input word as bits, e.g. 010")
    p.add_argument("--k", type=_count, required=True)

    sub.add_parser("info", help="print version, qubit cap and conventions")
    return ap


def _config_from_args(kind: str, args) -> ExperimentConfig:
    # command-line defaults that differ from ExperimentConfig's; a config file
    # overrides them with the fields it sets, and explicit flags override both
    values = {"family": "classical-emulation", "T": 3} if kind == "census" else {"trials": 100}
    if args.config:
        values.update(read_config(args.config, kind))
    values.update((name, getattr(args, name)) for name in KIND_FIELDS[kind]
                  if getattr(args, name) is not None)
    return ExperimentConfig(**{**values, "kind": kind}).validate()


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
            cap = qubit_cap()
            print(f"qqlab {__version__}")
            print(f"qubit cap: {cap} (override with QQLAB_QUBIT_CAP)")
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

        cfg = _config_from_args(args.command, args)
        if args.command == "census":
            report = exact_census(cfg.family, cfg.n, cfg.T, t=cfg.t,
                                  threshold=cfg.success_threshold,
                                  allow_large=cfg.allow_large_census)
            print(f"total oracles: {report.total_oracles}")
            print(f"failing fraction: {report.failing_fraction}")
            if cfg.output_path:
                report.write(cfg.output_path)
            return 0
        return _print_summary(monte_carlo(cfg))

    # width and length mismatches reach here only from the words and oracle
    # files given on the command line
    except (InputError, CapExceededError, WidthMismatchError, LengthMismatchError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    except QqlabError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())
