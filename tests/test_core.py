from __future__ import annotations

import pickle
import random
import re

import pytest

import reversal as rv
from reversal.core import TOKEN_RE, ParseError


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


def test_parse_error_survives_pickling():
    with pytest.raises(ParseError) as exc:
        rv.parse_presentation("gens: a b\nrel: a c = b a")
    for error in (exc.value, ParseError("x", 1, 2)):
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is ParseError
        assert str(copy) == str(error)
        assert (copy.line, copy.column, copy.item) == (error.line, error.column, None)


def test_weight_for_unknown_letter_has_position():
    # The weights line may come before the generators it names.
    with pytest.raises(ParseError, match="weight for unknown letter 'z'") as exc:
        rv.parse_presentation("weights: a=3 z=2\ngens: a b\n")
    assert (exc.value.line, exc.value.column) == (1, 14)


@pytest.mark.parametrize(
    "text, position",
    [
        ("gens: ab\nrel: ab = b", (2, 11)),
        ("gens: ab b b", (1, 12)),
        ("gens: s1 s2\nrel: s1 s2 = s2 s", (2, 17)),
        ("gens: s1\nrel: s1 = 1 s1", (2, 11)),
    ],
)
def test_parse_error_column_starts_the_named_token(text, position):
    # Each named token also occurs earlier in its line, inside or as a token.
    with pytest.raises(ParseError) as exc:
        rv.parse_presentation(text)
    assert (exc.value.line, exc.value.column) == position


FAULTS = [
    "unknown-letter", "duplicate-gen", "invalid-gen", "unknown-weight", "zero-weight"
]


def inject_fault(rng: random.Random, text: str, letters: tuple[str, ...], fault: str):
    """Put one fault into a formatted presentation.  Returns the new text
    and the 1-based line and column of the token that the error names."""

    def unknown() -> str:  # a prefix or an extension of a letter
        tok = rng.choice(letters)
        names = [tok[:i] for i in range(1, len(tok))] + [tok + "x"]
        return rng.choice([n for n in names if n not in letters])

    lines = text.splitlines()
    if fault == "unknown-letter":
        i = rng.choice([j for j, line in enumerate(lines) if line.startswith("rel:")])
        tokens = lines[i].split()
        k = rng.choice([j for j, t in enumerate(tokens) if j and t != "="])
        tokens[k] = unknown()
    elif fault in ("duplicate-gen", "invalid-gen"):
        i, tokens = 0, lines[0].split()
        if fault == "duplicate-gen":
            name = rng.choice(letters)
            tokens.insert(rng.randint(1, len(tokens)), name)
            k = max(j for j, t in enumerate(tokens) if t == name)  # the second one
        else:
            tok = rng.choice(letters)
            names = ("1" + tok, tok[1:], tok + "+")
            bad = [n for n in names if n and not TOKEN_RE.fullmatch(n)]
            k = rng.randint(1, len(tokens))
            tokens.insert(k, rng.choice(bad))
    else:
        named = rng.choice(letters)
        others = [t for t in letters if t != named]
        weighted = rng.sample(others, rng.randint(0, min(3, len(others))))
        tokens = ["weights:"] + [f"{t}={rng.randint(1, 3)}" for t in weighted]
        k = rng.randint(1, len(tokens))
        tokens.insert(k, f"{named}=0" if fault == "zero-weight" else f"{unknown()}=2")
        i = rng.randint(0, len(lines))
        lines.insert(i, "")
    sep = rng.choice([" ", "  ", "\t"])
    lines[i] = sep.join(tokens)
    column = len(sep.join(tokens[:k])) + len(sep) + 1
    return "\n".join(lines) + "\n", i + 1, column


@pytest.mark.parametrize(
    "name, p",
    [
        ("braid4", rv.braid(4)),
        ("colored42", rv.colored_braid(4, ["a", "b"])),
        ("malcev", rv.malcev()),
    ],
)
def test_parse_fault_points_at_named_token(name, p):
    text = rv.format_presentation(p)
    for k in range(60):
        rng = random.Random(f"parse-fault:{name}:{k}")
        fault = FAULTS[k % len(FAULTS)]
        bad, line, column = inject_fault(rng, text, p.letters, fault)
        with pytest.raises(ParseError) as exc:
            rv.parse_presentation(bad)
        at = bad.splitlines()[exc.value.line - 1][exc.value.column - 1 :]
        named = re.search(r"'([^']*)'", str(exc.value)).group(1)
        assert at.split()[0].partition("=")[0] == named, (fault, bad)
        assert (exc.value.line, exc.value.column) == (line, column), (fault, bad)


def test_make_presentation_names_the_offending_item():
    cases = [
        ((), [], None, ("gens", 0), "empty generator list"),
        (["a", "1b"], [], None, ("gens", 1), "invalid generator token '1b'"),
        (["a", 7], [], None, ("gens", 1), "invalid generator token 7"),
        (["a", "b", "a"], [], None, ("gens", 2), "duplicate generator token 'a'"),
        (["a"], [], {"b": 2}, ("weights", "b"), "weight for unknown letter 'b'"),
        (["a"], [], {"a": -1}, ("weights", "a"), "non-positive weight -1"),
        (["a", "b"], [("a b", "b a"), ("a", "a c")], None, ("rel", 1, 1, 1), "'c'"),
    ]
    for letters, rels, weights, item, message in cases:
        with pytest.raises(rv.PresentationError, match=re.escape(message)) as exc:
            rv.make_presentation(letters, rels, weights)
        assert exc.value.item == item


@pytest.mark.parametrize("weight", ["2", None, True, False, 1.5, 2.0])
def test_weights_must_be_int(weight):
    with pytest.raises(rv.PresentationError, match="weight .* for letter 'a'") as exc:
        rv.make_presentation(["a", "b"], [], {"a": weight})
    assert exc.value.item == ("weights", "a")
    assert rv.make_presentation(["a", "b"], [], {"a": 2}).weights == (2, 1)


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
