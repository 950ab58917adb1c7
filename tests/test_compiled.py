"""The compiled data of a presentation: its cached hash, tile table,
deterministic flag, reversal table, rewrite index, mirror, orbit table
and mirror table, the last two the letter maps that carry grids onto it.

The indexes must give exactly what a scan over all relations gives, in
the same order; the scans below are kept as the reference.  The hash and
the indexes belong to one presentation object: equal presentations share
cache entries, derived ones compile their own, and none of it shows in
equality, `repr`, copies or pickles.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import random

import pytest

import reversal as rv
from conftest import catalog_presentations, is_carried, rand_word
from reversal import symmetry
from reversal.congruence import rewrite_neighbors
from reversal.grids import Tile, TileKind, letter_tiles


def scan_letter_tiles(p: rv.Presentation, s: int, t: int) -> tuple[Tile, ...]:
    out = []
    if s == t:
        out.append(Tile(TileKind.CANCEL, s, t, (), ()))
    for rel in p.relations:
        for orientation, (side_s, side_t) in enumerate(
            ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs))
        ):
            if side_s and side_t and side_s[0] == s and side_t[0] == t:
                out.append(
                    Tile(
                        TileKind.RELATION,
                        s,
                        t,
                        right=side_t[1:],
                        bottom=side_s[1:],
                        rel_index=rel.index,
                        orientation=orientation,
                    )
                )
    return tuple(out)


def scan_rewrite_neighbors(p: rv.Presentation, w: rv.Word) -> list[rv.Word]:
    out = []
    n = len(w)
    for rel in p.relations:
        for src, dst in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
            if src == dst:
                continue
            k = len(src)
            for i in range(n - k + 1):
                if w[i : i + k] == src:
                    out.append(w[:i] + dst + w[i + k :])
    return out


def presentations() -> dict[str, rv.Presentation]:
    """The catalog and its mirrors, plus edge cases of rewriting: an
    ε-relation (an empty side matches at every position), overlapping
    occurrences, a relation with equal sides, and a weighted letter."""
    out = {}
    for name, p in catalog_presentations().items():
        out[name] = p
        out[f"mirror-{name}"] = rv.mirror(p)
    out["edge-cases"] = rv.parse_presentation(
        "gens: a b c\nweights: c=2\nrel: a b = 1\nrel: a a = b\n"
        "rel: b a b = a b a\nrel: c = c\nrel: c = b b\n"
    )
    return out


@pytest.mark.parametrize("name", sorted(presentations()))
def test_letter_tiles_match_scan(name):
    p = presentations()[name]
    letters = range(len(p.letters))
    for s in letters:
        for t in letters:
            assert letter_tiles(p, s, t) == scan_letter_tiles(p, s, t)


@pytest.mark.parametrize("name", sorted(presentations()))
def test_rewrite_neighbors_match_scan(name):
    p = presentations()[name]
    for k in range(4):
        rng = random.Random(f"rewrite:{name}:{k}")
        for _ in range(60):
            w = rand_word(rng, p, 8)
            assert rewrite_neighbors(p, w) == scan_rewrite_neighbors(p, w)


def test_parsed_copy_shares_hash_and_cache_entry():
    p = rv.colored_braid(3, ["a", "b"])
    q = rv.parse_presentation(rv.format_presentation(p))
    assert q is not p
    assert q == p and hash(q) == hash(p)
    rv.check_completeness.cache_clear()
    first = rv.check_completeness(p)
    hits = rv.check_completeness.cache_info().hits
    assert rv.check_completeness(q) is first
    assert rv.check_completeness.cache_info().hits == hits + 1


@pytest.mark.parametrize("name", sorted(catalog_presentations()))
def test_mirror_twice_is_equal_with_equal_hash(name):
    p = catalog_presentations()[name]
    back = rv.mirror(rv.mirror(p))
    assert back == p and hash(back) == hash(p)


@pytest.mark.parametrize("name", sorted(catalog_presentations()))
def test_mirrored_is_the_mirror_built_once(name):
    p = catalog_presentations()[name]
    assert p.mirrored == rv.mirror(p)
    assert p.mirrored is p.mirrored
    assert p.mirrored.mirrored == p


@pytest.mark.parametrize("name", sorted(catalog_presentations()))
def test_reversal_table_pushes_each_cells_first_tile(name):
    # Bottom letters upright, then right letters inverted, last first: the
    # signed word b·r⁻¹ that replaces s⁻¹t, its rightmost letter on top.
    p = catalog_presentations()[name]
    n = len(p.letters)
    expected = {}
    for s in range(n):
        for t in range(n):
            tiles = scan_letter_tiles(p, s, t)
            if tiles:
                expected[s * n + t] = tiles[0].bottom + tuple(~x for x in tiles[0].right[::-1])
    assert p.reversal_table == expected


def test_replaced_presentation_compiles_its_own(colored42):
    p = colored42
    hash(p), p.tile_table, p.rewrite_index
    q = dataclasses.replace(p, relations=p.relations[:3])
    assert q.tile_table is not p.tile_table
    assert q.rewrite_index is not p.rewrite_index
    assert hash(q) == hash((q.letters, q.relations, q.weights))
    letters = range(len(q.letters))
    for s in letters:
        for t in letters:
            assert letter_tiles(q, s, t) == scan_letter_tiles(q, s, t)
    # 6 oriented rules under 5 letter pairs: two sources start with the same pair.
    rules = [rule for bucket in q.rewrite_index.values() for rule in bucket]
    assert len(q.rewrite_index) == 5
    assert sorted(number for number, *_ in rules) == list(range(6))


def test_compiled_data_is_not_part_of_the_value(colored42):
    fresh = rv.colored_braid(4, ["a", "b"])
    compiled = {
        "_hash", "tile_table", "deterministic", "reversal_table", "rewrite_index",
        "mirrored", "orbits", "from_mirror",
    }
    hash(colored42), colored42.tile_table, colored42.rewrite_index
    colored42.deterministic, colored42.reversal_table, colored42.mirrored
    colored42.orbits
    symmetry.carriers(colored42, {}, (colored42.mirrored, {}))
    assert compiled <= set(vars(colored42))
    assert colored42 == fresh
    assert repr(colored42) == repr(fresh)
    for name in compiled:
        assert name not in repr(colored42)
    for clone in (copy.copy(colored42), pickle.loads(pickle.dumps(colored42))):
        assert not compiled & set(vars(clone))
        assert clone == colored42 and hash(clone) == hash(colored42)


def slot_values(item: object) -> list:
    """The values of the slots set on `item`, read through the slot
    descriptors, so that no `__getattr__` runs."""
    values = []
    for cls in type(item).__mro__:
        slots = cls.__dict__.get("__slots__", ())
        for name in [slots] if isinstance(slots, str) else slots:
            try:
                values.append(cls.__dict__[name].__get__(item))
            except (AttributeError, KeyError):  # unset, or a mangled name
                pass
    return values


def holds_a_tile(value: object) -> bool:
    """Whether a Tile is reachable from `value` through containers and
    object attributes (instance dicts and slots), not entering
    presentations."""
    stack, seen = [value], set()
    while stack:
        item = stack.pop()
        if isinstance(item, Tile):
            return True
        if id(item) in seen or isinstance(item, (rv.Presentation, str, int)):
            continue
        seen.add(id(item))
        if isinstance(item, dict):
            stack += list(item.keys()) + list(item.values())
        elif isinstance(item, (tuple, list, set, frozenset)):
            stack += list(item)
        else:
            stack += list(getattr(item, "__dict__", {}).values()) + slot_values(item)
    return False


def test_carrying_data_is_plain_and_compiled_once(monkeypatch):
    # Only the tile table holds tiles, also once every carried grid is
    # read: the tables and letter maps that carry grids are plain data.  So
    # a presentation compiles its mirror table once, even for runs over
    # equal copies of its mirror.
    calls = []
    carry = symmetry.from_mirror

    def counted(source, p):
        calls.append(p)
        return carry(source, p)

    monkeypatch.setattr(symmetry, "from_mirror", counted)
    p = rv.colored_braid(4, ["a", "b"])
    rv.check_completeness.cache_clear()
    assert rv.check_left_cancellative(p).status.value == "cancellative"
    assert rv.check_right_cancellative(p).status.value == "cancellative"
    assert len(calls) == 1 and calls[0] is p.mirrored
    for q in (p, p.mirrored):  # carry every carried grid
        for rep in rv.check_completeness(q).pairs:
            rep.src_grids, rep.dst_grids
    for q in (p, p.mirrored):
        for name, value in vars(q).items():
            assert name == "tile_table" or not holds_a_tile(value), name
    q = rv.colored_braid(4, ["a", "b"])
    calls.clear()
    for _ in range(2):
        rv.check_completeness.cache_clear()
        rv.check_completeness(rv.mirror(q))
        assert all(is_carried(rep) for rep in rv.check_completeness(q).pairs)
    assert len(calls) == 1 and calls[0] is q
    rv.check_completeness.cache_clear()
