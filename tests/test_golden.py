"""Golden outputs: the exact standard output of fixed CLI runs.

Each case runs `reversal.cli.run` in process and compares its exit code
and output byte for byte with `golden/<name>.txt`; standard error follows
a `stderr:` line when it is not empty.  The cases cover every command in
JSON and text mode: completeness and cancellativity verdicts with their
witnesses, the defect, grid JSON and drawings, reversing targets, lcms and
common multiples, word equivalence, diagnostics and the catalog, on
decided, inconclusive and error paths.  Presentation files read by the
cases live in `golden/inputs/`.  After a change
that is meant to alter an output, rewrite the fixtures with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from reversal.cli import run

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

CB42 = ["--catalog", "colored-braid", "--n", "4", "--colors", "2"]
CB43 = ["--catalog", "colored-braid", "--n", "4", "--colors", "3"]
RC42 = ["--catalog", "restricted-colored", "--n", "4", "--colors", "2"]
MALCEV = ["--catalog", "malcev"]
B4 = ["--catalog", "braid", "--n", "4"]
B5 = ["--catalog", "braid", "--n", "5"]
B6 = ["--catalog", "braid", "--n", "6"]
CB32 = ["colored-braid", "--n", "3", "--colors", "2"]
DIAGNOSTICS = ["--file", str(INPUTS / "diagnostics.txt")]
LEFT_CONFLICT = ["--file", str(INPUTS / "left-cancel-conflict.txt")]

CASES = {
    "complete-cb42": ["complete", *CB42, "--json"],
    "complete-cb43": ["complete", *CB43, "--json"],
    "complete-rc42": ["complete", *RC42, "--json"],
    "complete-rc42-tight": ["complete", *RC42, "--max-class-size", "3", "--json"],
    "complete-cb42-tight": ["complete", *CB42, "--max-class-size", "5", "--json"],
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
    # Text mode of each decision, and the inconclusive and no-target paths.
    "complete-malcev-text": ["complete", *MALCEV],
    "complete-rc42-text": ["complete", *RC42],
    "complete-b4-tight-text": ["complete", *B4, "--max-cells", "2"],
    "cancel-cb42-text": ["cancel", *CB42],
    "cancel-rc42-text": ["cancel", *RC42],
    "cancel-b4-tight-text": ["cancel", *B4, "--max-cells", "2"],
    "defect-cb42-text": ["defect", *CB42],
    "defect-rc42-text": ["defect", *RC42],
    "defect-b4-tight-text": ["defect", *B4, "--max-cells", "2"],
    "reverse-b4-text": ["reverse", *B4, "s1", "s2 s3 s2"],
    "reverse-cb42-none-text": ["reverse", *CB42, "s1.a", "s1.b"],
    "reverse-b4-tight-text": ["reverse", *B4, "s1 s2", "s3 s2", "--max-cells", "3"],
    "reverse-b4-tight-json": [
        "reverse", *B4, "s1 s2", "s3 s2", "--max-cells", "3", "--json"
    ],
    "lcm-b4-text": ["lcm", *B4, "s1 s2", "s3 s2"],
    "lcm-b4-tight-text": ["lcm", *B4, "s1 s2", "s3 s2", "--max-cells", "3"],
    "lcm-b4-tight-json": ["lcm", *B4, "s1 s2", "s3 s2", "--max-cells", "3", "--json"],
    "lcm-cb42-precondition": ["lcm", *CB42, "s1.a", "s2.a"],
    "multiple-cb42-text": ["multiple", *CB42, "s1.a s3.b", "s2.a s2.b"],
    "multiple-cb42-none-text": ["multiple", *CB42, "s1.a", "s1.b"],
    "multiple-b4-tight-text": ["multiple", *B4, "s1 s2", "s3 s2", "--max-cells", "3"],
    "equiv-b4-text": ["equiv", *B4, "s1 s2 s1", "s2 s1 s2"],
    "equiv-b4-json": ["equiv", *B4, "s1 s2 s1", "s2 s1 s2", "--json"],
    "equiv-b4-no-text": ["equiv", *B4, "s1", "s2"],
    "equiv-b4-no-json": ["equiv", *B4, "s1", "s2", "--json"],
    "equiv-b4-tight-text": [
        "equiv", *B4, "--max-class-size", "2", "s1 s2 s1 s3", "s3 s2 s1 s2"
    ],
    "equiv-b4-tight-json": [
        "equiv", *B4, "--max-class-size", "2", "s1 s2 s1 s3", "s3 s2 s1 s2", "--json"
    ],
    # Diagnostics and the catalog.
    "validate-malcev-text": ["validate", *MALCEV],
    "validate-malcev-json": ["validate", *MALCEV, "--json"],
    "validate-diagnostics-text": ["validate", *DIAGNOSTICS],
    "validate-diagnostics-json": ["validate", *DIAGNOSTICS, "--json"],
    "validate-left-conflict-text": ["validate", *LEFT_CONFLICT],
    "complete-diagnostics-text": ["complete", *DIAGNOSTICS],
    "catalog-malcev-text": ["catalog", "malcev"],
    "catalog-malcev-json": ["catalog", "malcev", "--json"],
    "catalog-cb32-text": ["catalog", *CB32],
    "catalog-cb32-json": ["catalog", *CB32, "--json"],
    "catalog-cb32-emit": ["catalog", *CB32, "--emit"],
    # Usage and parse errors: exit 64 and one line on standard error.
    "error-unknown-letter": ["equiv", *B4, "s1 s9", "s2"],
    "error-max-cells-zero": ["equiv", *B4, "--max-cells", "0", "s1", "s1"],
    "error-unknown-catalog": ["equiv", "--catalog", "nonsense", "s1", "s2"],
    "error-unknown-catalog-entry": ["catalog", "nonsense"],
    "error-parse-position": [
        "validate", "--file", str(INPUTS / "unknown-letter.txt")
    ],
}


def document(code: int, stdout: str, stderr: str) -> str:
    text = f"exit {code}\n" + stdout
    if stderr:
        text += "stderr:\n" + stderr
    return text


def output(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return document(code, out.getvalue(), err.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert output(CASES[name]) == expected


@pytest.mark.parametrize(
    "name",
    [
        "cancel-cb42",
        "defect-cb42",
        "lcm-b6",
        "complete-rc42-text",
        "lcm-b4-tight-text",
        "validate-diagnostics-json",
        "error-parse-position",
    ],
)
def test_golden_output_without_asserts(name):
    """`python -O -m reversal` strips asserts; the output must not change."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="utf-8")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "reversal", *CASES[name]],
        capture_output=True,
        encoding="utf-8",
        env=env,
    )
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert document(proc.returncode, proc.stdout, proc.stderr) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / f"{name}.txt").write_text(output(argv), encoding="utf-8")
