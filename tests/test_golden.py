"""Fixed-seed report CSVs pinned byte for byte.

Each case runs the command line into a temporary directory and compares
the CSV with the checked-in file under tests/golden/.  The bits depend on
numpy details that are easy to disturb (the operand order of a complex
product, temporary elision), so a change to a kernel or to the order of
a sweep's generator draws shows up here.

The `random` family draws only 1-2-target gates, so no case here runs the
3-4-target gate path; tests/test_kernels.py covers it.

When an output change is intended, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from qqlab.cli import cli_main

GOLDEN = Path(__file__).parent / "golden"
FAMILIES = ("random", "truncated-emulation", "concentrated")

CASES = {
    "lemma1": ["lemma1", "--n", "2", "--trials", "20", "--seed", "1"],
    "lemma2": ["lemma2", "--n", "2", "--tau-work", "3", "--t", "4", "--trials", "10",
               "--seed", "2"],
    **{f"adversary-{fam}": ["adversary", "--family", fam, "--n", "3", "--T", "3",
                            "--trials", "5", "--seed", "3"] for fam in FAMILIES},
    **{f"pigeonhole-{fam}": ["pigeonhole", "--family", fam, "--n", "2", "--T", "4",
                             "--t", "1", "--trials", "3", "--seed", "4"] for fam in FAMILIES},
    **{f"montecarlo-{fam}": ["montecarlo", "--family", fam, "--n", "2", "--T", "3",
                             "--trials", "30", "--seed", "5"] for fam in FAMILIES},
    **{f"census-{fam}": ["census", "--family", fam, "--n", "2", "--T", "3"]
       for fam in FAMILIES + ("classical-emulation",)},
}


def write_csv(name: str, directory: Path) -> Path:
    out = directory / f"{name}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(CASES[name] + ["--out", str(out)])
    assert code == 0, f"{name} exited {code}"
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden_file(name, tmp_path):
    assert write_csv(name, tmp_path).read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        write_csv(name, GOLDEN).with_suffix(".json").unlink()
        print(f"wrote {GOLDEN / name}.csv", file=sys.stderr)
