"""Fixed-seed report CSVs pinned byte for byte.

Each case runs the command line into a temporary directory and compares
the CSV with the checked-in file under tests/golden/.  The bits depend on
numpy details that are easy to disturb (the operand order of a complex
product, temporary elision), so a change to a kernel or to the order of
a sweep's generator draws shows up here.

The `random` family draws only 1-2-target gates, and every dense gate of
1-4 targets runs the one blocked matrix product, so these cases pin its
bits at 1-2 targets; tests/test_kernels.py covers 3-4.

When an output change is intended, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

from qqlab.cli import cli_main
from qqlab.harness import CSV_SCHEMA

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_rows_read_back_as_the_json_rows(name, tmp_path):
    # a field holding a comma (lemma1's and lemma2's contexts) is quoted, so
    # every row has the header's fields
    path = write_csv(name, tmp_path)
    with open(path, newline="") as fh:
        assert fh.readline().startswith("# qqlab-report v1 ")
        rows = list(csv.DictReader(fh))
    report = json.loads(path.with_suffix(".json").read_text())
    if name.startswith("census"):
        assert [float(r["success_probability"]) for r in rows] == report["probabilities"]
        fields = ["oracle_index", "success_probability", "success"]
    else:
        assert [r["context"] for r in rows] == [j["context"] for j in report["rows"]]
        for row, want in zip(rows, report["rows"], strict=True):
            for key in ("lhs", "rhs", "slack"):
                assert repr(float(row[key])) == repr(float(want[key]))
        fields = CSV_SCHEMA.split(",")
    assert rows and all(list(r) == fields and None not in r.values() for r in rows)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        write_csv(name, GOLDEN).with_suffix(".json").unlink()
        print(f"wrote {GOLDEN / name}.csv", file=sys.stderr)
