from __future__ import annotations

import pytest

import reversal as rv
from reversal.core import ParseError


def test_parse_minimal():
    p = rv.parse_presentation("gens: a b\nrel: a b = b a")
    assert p.letters == ("a", "b")
    assert len(p.relations) == 1
    assert p.relations[0].lhs == p.word("a b")
    assert p.relations[0].rhs == p.word("b a")
    assert p.weights == (1, 1)


def test_parse_braid_file_round_trip(braid4):
    text = rv.format_presentation(braid4)
    p = rv.parse_presentation(text)
    assert len(p.letters) == 3
    assert len(p.relations) == 3
    assert p == braid4


def test_parse_comments_blank_lines_weights():
    text = """
    # a weighted presentation
    gens: x y   # generators
    weights: x=2
    rel: x = y y
    """
    p = rv.parse_presentation(text)
    assert p.weights == (2, 1)
    assert p.weight_homogeneous


def test_parse_empty_side_is_syntax_error():
    with pytest.raises(ParseError):
        rv.parse_presentation("gens: a\nrel: a a = ")


def test_parse_epsilon_side_spelled_1_is_flagged_not_rejected():
    p = rv.parse_presentation("gens: a\nrel: a a = 1")
    assert p.epsilon_relations == (0,)
    kinds = {d.kind for d in rv.validate(p)}
    assert "epsilon-relation" in kinds


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        rv.parse_presentation("gens: a b\nrel: a c = b a")
    assert exc.value.line == 2
    assert exc.value.column == 8

    with pytest.raises(ParseError, match="duplicate generator"):
        rv.parse_presentation("gens: a a")
    with pytest.raises(ParseError, match="non-positive weight"):
        rv.parse_presentation("gens: a\nweights: a=0")
    with pytest.raises(ParseError, match="invalid generator token"):
        rv.parse_presentation("gens: a 1b")
    with pytest.raises(ParseError, match="missing 'gens:'"):
        rv.parse_presentation("rel: a = b")
    with pytest.raises(ParseError, match="duplicate 'gens:'"):
        rv.parse_presentation("gens: a\ngens: b")


def test_weight_for_unknown_letter_has_position():
    # The weights line may come before the generators it names.
    with pytest.raises(ParseError, match="weight for unknown letter 'z'") as exc:
        rv.parse_presentation("weights: a=3 z=2\ngens: a b\n")
    assert (exc.value.line, exc.value.column) == (1, 14)


def test_duplicate_relations_deduplicated_with_diagnostic():
    p = rv.parse_presentation(
        "gens: a b\nrel: a b = b a\nrel: b a = a b\nrel: a b = b a"
    )
    assert len(p.relations) == 1
    assert p.duplicates_dropped == 2
    kinds = {d.kind for d in rv.validate(p)}
    assert "duplicate-relations-dropped" in kinds


def test_validate_braid4(braid4):
    kinds = {d.kind for d in rv.validate(braid4)}
    assert "epsilon-relation" not in kinds
    assert "weight-homogeneous" in kinds
    assert "right-complemented" in kinds
    assert "left-cancel-conflict" not in kinds


def test_validate_colored42(colored42):
    kinds = {d.kind for d in rv.validate(colored42)}
    assert "weight-homogeneous" in kinds
    assert "not-right-complemented" in kinds


def test_validate_malcev():
    p = rv.malcev()
    kinds = {d.kind for d in rv.validate(p)}
    assert "weight-homogeneous" in kinds
    assert "left-cancel-conflict" not in kinds


def test_word_weight(braid4):
    assert braid4.word_weight(()) == 0
    assert braid4.word_weight(braid4.word("s2 s1 s3 s2 s1")) == 5
    pm = rv.malcev()
    assert pm.word_weight(pm.word("a c")) == 2
    weighted = rv.parse_presentation("gens: x y\nweights: x=3\nrel: x = y y y")
    assert weighted.word_weight(weighted.word("x y")) == 4


def test_mirror_examples(braid4):
    pm = rv.malcev()
    m = rv.mirror(pm)
    assert m.relations[0].lhs == pm.word("c a")
    assert m.relations[0].rhs == pm.word("d b")
    assert rv.mirror(rv.mirror(braid4)) == braid4

    pc = rv.colored_braid(4, ["a", "b"])
    mc = rv.mirror(pc)
    rel = pc.relations[0]
    assert mc.relations[0].lhs == tuple(reversed(rel.lhs))
    assert mc.relations[0].rhs == tuple(reversed(rel.rhs))
    assert rv.mirror(mc) == pc


def test_left_cancel_conflicts(braid4, colored42):
    assert rv.left_cancel_conflicts(braid4) == ()
    assert rv.left_cancel_conflicts(colored42) == ()
    p = rv.parse_presentation("gens: a b c\nrel: a b = a c")
    conflicts = rv.left_cancel_conflicts(p)
    assert [r.index for r in conflicts] == [0]


def test_is_right_complemented(braid4, colored42):
    assert rv.is_right_complemented(braid4)
    assert not rv.is_right_complemented(colored42)
    free = rv.make_presentation(["a", "b"], [])
    assert rv.is_right_complemented(free)
    assert not rv.is_right_complemented(rv.malcev())


def test_word_parsing_and_formatting(braid4):
    assert braid4.word("1") == ()
    assert braid4.word_str(()) == "1"
    assert braid4.word_str(braid4.word("s1 s2")) == "s1 s2"
    with pytest.raises(rv.PresentationError, match="unknown letter"):
        braid4.word("s1 s9")


def test_relation_with_one_head_is_not_right_complemented():
    p = rv.parse_presentation("gens: a b\nrel: a b = a b")
    assert not rv.is_right_complemented(p)
    kinds = {d.kind for d in rv.validate(p)}
    assert "not-right-complemented" in kinds
    a = p.letter("a")
    with pytest.raises(rv.PresentationError, match="complemented"):
        rv.right_lcm(p, (a,), (a,))
    with pytest.raises(rv.PresentationError, match="complemented"):
        rv.reverse_complemented(p, (a,), (a,))
