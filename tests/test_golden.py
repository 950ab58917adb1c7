"""Golden outputs: the exact standard output of fixed CLI runs.

Each case runs `reversal.cli.run` in process and compares its output byte
for byte with `golden/<name>.txt`.  The cases cover completeness and
cancellativity verdicts with their witnesses, the defect, grid JSON and
drawings, reversing targets, lcms and common multiples.  After a change
that is meant to alter an output, rewrite the fixtures with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from reversal.cli import run

GOLDEN = Path(__file__).parent / "golden"

CB42 = ["--catalog", "colored-braid", "--n", "4", "--colors", "2"]
CB43 = ["--catalog", "colored-braid", "--n", "4", "--colors", "3"]
RC42 = ["--catalog", "restricted-colored", "--n", "4", "--colors", "2"]
MALCEV = ["--catalog", "malcev"]
B4 = ["--catalog", "braid", "--n", "4"]
B5 = ["--catalog", "braid", "--n", "5"]
B6 = ["--catalog", "braid", "--n", "6"]

CASES = {
    "complete-cb42": ["complete", *CB42, "--json"],
    "complete-cb43": ["complete", *CB43, "--json"],
    "complete-rc42": ["complete", *RC42, "--json"],
    "complete-malcev": ["complete", *MALCEV, "--json"],
    "complete-b5": ["complete", *B5, "--json"],
    "cancel-cb42": ["cancel", *CB42, "--json"],
    "cancel-cb43": ["cancel", *CB43, "--json"],
    "cancel-rc42": ["cancel", *RC42, "--json"],
    "cancel-malcev": ["cancel", *MALCEV, "--json"],
    "cancel-b5": ["cancel", *B5, "--json"],
    "defect-cb42": ["defect", *CB42, "--json"],
    "grids-b4-json": ["grids", *B4, "s1", "s2 s3 s2", "--json"],
    "grids-b4-text": ["grids", *B4, "s1", "s2 s3 s2"],
    "grids-cb42-json": ["grids", *CB42, "s1.a", "s2.b s3.a s2.b", "--json"],
    "grids-cb42-text": ["grids", *CB42, "s1.a", "s2.b s3.a s2.b"],
    "reverse-b4": ["reverse", *B4, "s1 s2 s1", "s2 s1 s2", "--json"],
    "reverse-cb42": ["reverse", *CB42, "s1.a s2.b", "s2.a s1.b", "--json"],
    "lcm-b4": ["lcm", *B4, "s1 s2", "s3 s2", "--json"],
    "lcm-b6": ["lcm", *B6, "s1 s2 s1 s3 s2 s1", "s2 s3 s2 s4 s3 s2", "--json"],
    "multiple-cb42": ["multiple", *CB42, "s1.a s3.b", "s2.a s2.b", "--json"],
    "multiple-cb42-none": ["multiple", *CB42, "s1.a", "s1.b", "--json"],
}


def output(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return f"exit {code}\n" + out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert output(CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.txt").write_text(output(argv), encoding="utf-8")
