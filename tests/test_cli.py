from __future__ import annotations

import io
import json

import reversal as rv
from reversal.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_NO,
    EXIT_USAGE,
    EXIT_YES,
    _budget,
    _build_parser,
    run,
)


def invoke(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_equiv_affirmative():
    code, out, _ = invoke(
        "equiv", "--catalog", "braid", "--n", "4", "s1 s2 s1", "s2 s1 s2"
    )
    assert code == EXIT_YES
    assert "distance 1" in out


def test_equiv_negative_and_json():
    code, out, _ = invoke(
        "equiv", "--catalog", "braid", "--n", "4", "--json", "s1", "s2"
    )
    assert code == EXIT_NO
    doc = json.loads(out)
    assert doc["status"] == "not-equivalent"


def test_complete_verdicts():
    code, out, _ = invoke(
        "complete", "--catalog", "colored-braid", "--n", "4", "--colors", "2", "--json"
    )
    assert code == EXIT_YES
    assert json.loads(out)["verdict"] == "complete"

    code, out, _ = invoke(
        "complete", "--catalog", "restricted-colored", "--n", "4", "--colors", "2"
    )
    assert code == EXIT_NO
    assert "counterexample at generator" in out


def test_cancel_exit_codes():
    code, out, _ = invoke("cancel", "--catalog", "colored-braid", "--n", "4")
    assert code == EXIT_YES
    code, out, _ = invoke("cancel", "--catalog", "restricted-colored", "--n", "4")
    assert code == EXIT_INCONCLUSIVE
    assert "not-by-this-criterion" in out


def test_lcm_and_multiple():
    code, out, _ = invoke("lcm", "--catalog", "braid", "--n", "4", "s1", "s2")
    assert code == EXIT_YES and "s1 s2 s1" in out
    code, out, _ = invoke(
        "multiple", "--catalog", "colored-braid", "--n", "4", "s1.a", "s1.b"
    )
    assert code == EXIT_NO
    assert "no common right multiple" in out


def test_defect_command():
    code, out, _ = invoke("defect", "--catalog", "colored-braid", "--n", "4", "--json")
    assert code == EXIT_YES
    assert json.loads(out)["value"] == 5
    code, out, _ = invoke("defect", "--catalog", "restricted-colored", "--n", "4")
    assert code == EXIT_NO
    assert "infinite" in out


def test_reverse_and_grids():
    code, out, _ = invoke("reverse", "--catalog", "braid", "--n", "4", "s1", "s2 s3 s2")
    assert code == EXIT_YES
    assert "(s1 s2 s3, s2 s1 s3 s2 s1)" in out
    code, out, _ = invoke(
        "grids", "--catalog", "braid", "--n", "4", "--json", "s1", "s2 s3 s2"
    )
    assert code == EXIT_YES
    doc = json.loads(out)
    assert len(doc["grids"]) == 1
    assert len(doc["grids"][0]["cells"]) == 8
    code, out, _ = invoke("grids", "--catalog", "braid", "--n", "4", "s1", "s2 s3 s2")
    assert code == EXIT_YES
    assert "8 cells" in out and "+" in out  # rendered box drawing
    code, _, _ = invoke(
        "reverse", "--catalog", "colored-braid", "--n", "4", "s1.a", "s1.b"
    )
    assert code == EXIT_NO


def test_validate_command(tmp_path):
    path = tmp_path / "p.txt"
    path.write_text("gens: a b\nrel: a b = b a\n", encoding="utf-8")
    code, out, _ = invoke("validate", "--file", str(path), "--json")
    assert code == EXIT_YES
    assert json.loads(out)["ok"]

    path.write_text("gens: a\nrel: a a = 1\n", encoding="utf-8")
    code, out, _ = invoke("validate", "--file", str(path))
    assert code == EXIT_NO
    assert "epsilon-relation" in out


def test_catalog_emit_round_trip(tmp_path):
    code, out, _ = invoke("catalog", "colored-braid", "--n", "3", "--colors", "2", "--emit")
    assert code == EXIT_YES
    p = rv.parse_presentation(out)
    assert p == rv.colored_braid(3, ["a", "b"])
    code, out, _ = invoke("catalog", "malcev")
    assert code == EXIT_YES and "8 generators" in out


def test_usage_errors_exit_64():
    cases = [
        ("equiv", "--catalog", "braid", "s1 s9", "s2"),  # unknown letter
        ("equiv", "s1", "s2"),  # no source
        ("equiv", "--catalog", "nonsense", "s1", "s2"),  # unknown catalog
        ("equiv", "--file", "/nonexistent/x", "s1", "s2"),  # unreadable file
        ("equiv", "--file", "x", "--catalog", "braid", "s1", "s2"),  # both
        ("lcm", "--catalog", "colored-braid", "s1.a", "s2.a"),  # precondition
        ("frobnicate",),  # unknown command
        ("equiv", "--catalog", "braid", "--max-cells", "0", "s1", "s1"),
    ]
    for argv in cases:
        code, _, err = invoke(*argv)
        assert code == EXIT_USAGE, argv
        assert err.strip(), argv


def test_budget_flags_default_to_default_budget():
    args = _build_parser().parse_args(["complete", "--catalog", "braid"])
    assert _budget(args) == rv.DEFAULT_BUDGET
    args = _build_parser().parse_args(
        ["complete", "--catalog", "braid", "--max-class-size", "3", "--max-cells", "7"]
    )
    assert _budget(args) == rv.Budget(max_class_size=3, max_cells=7)


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("gens: a b\nrel: a c = b\n", encoding="utf-8")
    code, _, err = invoke("validate", "--file", str(path))
    assert code == EXIT_USAGE
    assert "line 2" in err


def test_json_outputs_are_byte_deterministic():
    commands = [
        ("complete", "--catalog", "braid", "--n", "4", "--json"),
        ("grids", "--catalog", "colored-braid", "--n", "4", "--json", "s1.a", "s2.b s3.a s2.b"),
        ("cancel", "--catalog", "malcev", "--json"),
        ("defect", "--catalog", "braid", "--n", "4", "--json"),
    ]
    for argv in commands:
        first = invoke(*argv)
        second = invoke(*argv)
        assert first == second
        doc = json.loads(first[1])
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == first[1]
