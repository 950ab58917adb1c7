from __future__ import annotations

from itertools import product

import pytest

import reversal as rv
from conftest import catalog_presentations


def unordered_pairs(p: rv.Presentation) -> set[frozenset[tuple[str, ...]]]:
    return {
        frozenset((tuple(p.tokens(r.lhs)), tuple(p.tokens(r.rhs))))
        for r in p.relations
    }


def test_braid_counts():
    assert len(rv.braid(2).letters) == 1 and not rv.braid(2).relations
    p3 = rv.braid(3)
    assert len(p3.letters) == 2 and len(p3.relations) == 1
    p4 = rv.braid(4)
    assert len(p4.letters) == 3 and len(p4.relations) == 3
    lengths = sorted(len(r.lhs) for r in p4.relations)
    assert lengths == [2, 3, 3]  # one commutation, two braid relations
    with pytest.raises(rv.PresentationError):
        rv.braid(1)


def test_colored_braid_counts():
    p = rv.colored_braid(4, ["a", "b"])
    assert len(p.letters) == 6
    assert len(p.relations) == 20
    assert p.duplicates_dropped == 0
    by_len = {2: 0, 3: 0}
    for r in p.relations:
        by_len[len(r.lhs)] += 1
    assert by_len == {2: 4, 3: 16}  # 4 commutations, 8 + 8 colored YB

    p32 = rv.colored_braid(3, ["a", "b"])
    assert len(p32.letters) == 4
    assert len(p32.relations) == 8
    assert all(len(r.lhs) == 3 for r in p32.relations)  # no distant pairs

    with pytest.raises(rv.PresentationError):
        rv.colored_braid(4, [])


def test_colored_braid_count_against_bruteforce():
    # Regenerate the unordered relation set naively and compare.
    for n, colors in ((3, ["a", "b"]), (4, ["a", "b"]), (4, ["a", "b", "c"])):
        p = rv.colored_braid(n, colors)
        expect: set[frozenset[tuple[str, ...]]] = set()
        for i in range(1, n):
            for j in range(1, n):
                if abs(i - j) >= 2:
                    for a, b in product(colors, repeat=2):
                        expect.add(
                            frozenset(
                                (
                                    (f"s{i}.{a}", f"s{j}.{b}"),
                                    (f"s{j}.{b}", f"s{i}.{a}"),
                                )
                            )
                        )
                elif abs(i - j) == 1:
                    for a, b, c in product(colors, repeat=3):
                        expect.add(
                            frozenset(
                                (
                                    (f"s{i}.{a}", f"s{j}.{b}", f"s{i}.{c}"),
                                    (f"s{j}.{c}", f"s{i}.{b}", f"s{j}.{a}"),
                                )
                            )
                        )
        assert unordered_pairs(p) == expect


def test_restricted_colored_counts_and_subset():
    pr = rv.restricted_colored(4, ["a", "b"])
    pc = rv.colored_braid(4, ["a", "b"])
    assert pr.letters == pc.letters
    assert len(pr.relations) == 16  # 4 commutations + 2 * (2*4 - 2) YB
    assert unordered_pairs(pr) <= unordered_pairs(pc)
    yb_r = sum(1 for r in pr.relations if len(r.lhs) == 3)
    yb_c = sum(1 for r in pc.relations if len(r.lhs) == 3)
    assert yb_r < yb_c


def test_single_color_families_collapse_to_braid():
    pb = rv.braid(4)

    def strip(p: rv.Presentation) -> set[frozenset[tuple[str, ...]]]:
        return {
            frozenset(
                (
                    tuple(t.split(".")[0] for t in p.tokens(r.lhs)),
                    tuple(t.split(".")[0] for t in p.tokens(r.rhs)),
                )
            )
            for r in p.relations
        }

    for family in (rv.colored_braid, rv.restricted_colored):
        p1 = family(4, ["a"])
        assert len(p1.relations) == len(pb.relations)
        assert strip(p1) == unordered_pairs(pb)


def test_malcev():
    p = rv.malcev()
    assert len(p.letters) == 8
    assert len(p.relations) == 3
    assert p.weight_homogeneous
    assert all(len(r.lhs) == 2 and len(r.rhs) == 2 for r in p.relations)
    # Two relations start with the pair (a, b), so not complemented.
    assert not rv.is_right_complemented(p)


def test_catalog_presentations_validate_cleanly():
    for name, p in catalog_presentations().items():
        kinds = {d.kind for d in rv.validate(p)}
        assert "epsilon-relation" not in kinds, name
        assert "weight-homogeneous" in kinds, name


def test_build_registry():
    p = rv.catalog.build("colored-braid", 3, ["a", "b"])
    assert p == rv.colored_braid(3, ["a", "b"])
    with pytest.raises(rv.PresentationError, match="unknown catalog"):
        rv.catalog.build("nonsense")
    assert rv.catalog.color_names(3) == ["a", "b", "c"]
    assert rv.catalog.build("restricted-colored", 3) == rv.restricted_colored(3, ["a", "b"])


@pytest.mark.parametrize("name", ["colored-braid", "restricted-colored"])
def test_an_empty_color_list_is_rejected(name):
    # Only a missing list means the default colors {a, b}.
    with pytest.raises(rv.PresentationError, match="color set must be nonempty"):
        rv.catalog.build(name, 4, [])
    with pytest.raises(rv.PresentationError, match="color set must be nonempty"):
        rv.catalog.entry(name, 4, ())


# The call and the message of the PresentationError it raises.
CATALOG_GUARDS = {
    "colored_braid(1, ab)": (lambda: rv.colored_braid(1, "ab"), "braid families need n >= 2"),
    "restricted_colored(1, ab)": (
        lambda: rv.restricted_colored(1, "ab"), "braid families need n >= 2"
    ),
    "colored_braid(3, [a, a])": (lambda: rv.colored_braid(3, ["a", "a"]), "duplicate colors"),
    "color_names(0)": (
        lambda: rv.catalog.color_names(0), "color count must be between 1 and 26"
    ),
    "color_names(27)": (
        lambda: rv.catalog.color_names(27), "color count must be between 1 and 26"
    ),
}


@pytest.mark.parametrize("name", CATALOG_GUARDS)
def test_catalog_guards_reject_bad_sizes_and_colors(name):
    call, message = CATALOG_GUARDS[name]
    with pytest.raises(rv.PresentationError) as exc:
        call()
    assert str(exc.value) == message


def test_relation_order_is_reproducible():
    p = rv.colored_braid(4, ["a", "b"])
    q = rv.colored_braid(4, ["a", "b"])
    assert p.relations == q.relations
    first = p.relations[0]
    assert p.word_str(first.lhs) == "s1.a s2.a s1.a"
