from __future__ import annotations

import io
import json

import reversal as rv
from reversal import cli
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


def test_defect_command(tmp_path):
    code, out, _ = invoke("defect", "--catalog", "colored-braid", "--n", "4", "--json")
    assert code == EXIT_YES
    assert json.loads(out)["value"] == 5
    code, out, _ = invoke("defect", "--catalog", "restricted-colored", "--n", "4")
    assert code == EXIT_NO
    assert "infinite" in out
    # Complete under this class budget, but its defect needs a larger class.
    path = tmp_path / "tight.txt"
    path.write_text("gens: x0 x1 x2 x3\nrel: x2 = x0\nrel: x3 x0 x2 = x3 x2 x0\n", encoding="utf-8")
    code, out, _ = invoke("defect", "--file", str(path), "--max-class-size", "2")
    assert (code, out) == (EXIT_INCONCLUSIVE, "defect: budget exhausted\n")
    assert EXIT_INCONCLUSIVE == 2


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


def test_reverse_text_names_the_limit(tmp_path):
    code, out, _ = invoke(
        "reverse", "--catalog", "braid", "--n", "4", "s1 s2", "s3 s2", "--max-cells", "3"
    )
    assert code == EXIT_INCONCLUSIVE and "raise --max-cells" in out
    code, out, _ = invoke(
        "reverse", "--catalog", "colored-braid", "--n", "3", "--colors", "3",
        "s1.a", "s2.b", "--max-grids", "1",
    )
    # Targets were found before the cap fired, so they are listed.
    assert code == EXIT_YES and "no reversing target" not in out
    path = tmp_path / "cyclic.txt"
    path.write_text("gens: a b\nrel: a b = b b a\n", encoding="utf-8")
    code, out, _ = invoke("reverse", "--file", str(path), "a", "b a")
    assert code == EXIT_INCONCLUSIVE
    assert out.startswith("no reversing target found: the search met a cyclic")


def test_lcm_on_an_incomplete_presentation_is_a_usage_error(tmp_path):
    path = tmp_path / "incomplete.txt"
    path.write_text(
        "gens: a b c\nrel: a a = b a\nrel: a a = c b\nrel: b c = c a\n", encoding="utf-8"
    )
    code, out, err = invoke("lcm", "--file", str(path), "a", "b")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: right_lcm requires completeness of reversing, which fails here\n"


def test_inconclusive_text_names_the_first_pair():
    code, out, _ = invoke(
        "complete", "--catalog", "braid", "--n", "4", "--max-class-size", "1"
    )
    assert code == EXIT_INCONCLUSIVE
    assert out.splitlines()[1] == (
        "first inconclusive pair: generator s1, relation 2 (s2 s3 s2 = s3 s2 s3), "
        "lhs->rhs: oracle budget exhausted during matching"
    )
    code, out, _ = invoke(
        "cancel", "--catalog", "braid", "--n", "4", "--max-class-size", "1"
    )
    assert code == EXIT_INCONCLUSIVE
    assert out.splitlines()[3].startswith("  first inconclusive pair of the mirror:")


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


def test_non_utf8_file_is_a_usage_error(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"gens: a\xff b\n")
    code, out, err = invoke("validate", "--file", str(path))
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {path}: not valid UTF-8 at byte offset 7\n"

    # The offset counts from the start of the file, past any read buffer.
    path.write_bytes(b"# padding\n" * 2000 + b"gens: a\xff b\n")
    code, _, err = invoke("complete", "--file", str(path), "--json")
    assert code == EXIT_USAGE
    assert err == f"error: {path}: not valid UTF-8 at byte offset 20007\n"


def test_grids_json_renders_no_drawing(monkeypatch):
    def fail(_):
        raise AssertionError("render_grid called in JSON mode")

    monkeypatch.setattr(cli, "render_grid", fail)
    code, out, _ = invoke(
        "grids", "--catalog", "braid", "--n", "4", "--json", "s1", "s2 s3 s2"
    )
    assert code == EXIT_YES
    assert len(json.loads(out)["grids"]) == 1


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
