"""Orbit reduction of the completeness check.

`check_completeness` checks one (generator, relation) pair per orbit of
the presentation's automorphisms and carries the representative's grids
and reports to the rest of the orbit; a run over a presentation's mirror
carries reports from the run over the presentation.  These tests hold
the carried reports to the direct ones: the verifier, within one
presentation and between two, one search and one verification per
presentation and its mirror (or an equal copy of it), grid transport (along automorphisms and onto
the mirror) against enumeration of the image, whole reports against
standalone `check_diamond`
and against matching by distances, random symmetric presentations, and a
search stopped by its node cap.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import reversal as rv
from conftest import catalog_presentations, direct_pairs, is_carried
from strategies import (
    artin_presentations, multi_relation_presentations, symmetric_presentations, with_mirror
)
from reversal import symmetry
from reversal.completeness import (
    RHS_TO_LHS,
    DiamondContext,
    DiamondStatus,
    Verdict,
    completeness_to_json,
    diamond_to_json,
)
from reversal.congruence import INFINITE, word_distance
from reversal.symmetry import automorphism_relations, find_automorphisms


def scan_matching(p, rep, b) -> tuple:
    """The matching by comparing target distances grid by grid: the first
    grid on the other side at finite distance in both components."""
    class_map = DiamondContext(p, b).class_map
    out = []
    for g in rep.src_grids:
        found = None
        for j, g2 in enumerate(rep.dst_grids):
            d = [word_distance(x, y, class_map) for x, y in zip(g.target, g2.target)]
            if None not in d and INFINITE not in d:
                found = j
                break
        out.append(found)
    return tuple(out)


def assert_reports_are_direct(p, b=rv.DEFAULT_BUDGET, after=None) -> None:
    """The reports of a fresh run over p, after one over `after` (p's
    mirror) if given, equal those of standalone `check_diamond`."""
    rv.check_completeness.cache_clear()
    if after is not None:
        rv.check_completeness(after, b)
    report = rv.check_completeness(p, b)
    direct = direct_pairs(p, b)
    assert list(report.pairs) == direct
    doc = json.dumps(completeness_to_json(p, report)["pairs"], sort_keys=True)
    assert doc == json.dumps([diamond_to_json(p, r) for r in direct], sort_keys=True)
    for rep in report.pairs:
        assert rep.matching == scan_matching(p, rep, b)


def test_verifier_rejects_wrong_maps():
    b4 = rv.braid(4)
    assert automorphism_relations(b4, (2, 1, 0)) is not None  # the strand flip
    assert automorphism_relations(b4, (0, 1, 2)) is not None
    # Not a bijection.
    assert automorphism_relations(b4, (0, 0, 2)) is None
    assert automorphism_relations(b4, (0, 1)) is None
    # Changes a weight, though it maps the relation set onto itself.
    weighted = rv.make_presentation(
        ["a", "b", "c"], [("a b", "b a"), ("c b", "b c")], {"c": 2}
    )
    assert automorphism_relations(weighted, (0, 1, 2)) is not None
    assert automorphism_relations(weighted, (2, 1, 0)) is None
    # Maps s1 s3 = s3 s1 to s2 s3 = s3 s2, which is no relation.
    assert automorphism_relations(b4, (1, 0, 2)) is None


def test_verifier_maps_onto_another_presentation():
    b4 = rv.braid(4)
    identity = (0, 1, 2)
    # Reversing s1 s3 = s3 s1 gives the same relation, sides swapped.
    assert automorphism_relations(b4.mirrored, identity, b4) == ((0, 0), (1, 1), (2, 0))
    assert automorphism_relations(b4, (2, 1, 0), b4.mirrored) == ((2, 1), (1, 0), (0, 1))
    # A weight of the target differs.
    relations = [(b4.tokens(r.lhs), b4.tokens(r.rhs)) for r in b4.relations]
    heavy = rv.make_presentation(b4.letters, relations, {"s2": 2})
    assert automorphism_relations(b4.mirrored, identity, heavy) is None
    # The target lacks a relation, or has one more.
    fewer = rv.make_presentation(b4.letters, [("s1 s2 s1", "s2 s1 s2"), ("s1 s3", "s3 s1")])
    assert automorphism_relations(b4.mirrored, identity, fewer) is None
    assert automorphism_relations(fewer, identity, b4) is None
    # Another alphabet.
    assert automorphism_relations(b4, identity, rv.braid(5)) is None
    # Malcev's presentation is not its own mirror under the identity.
    m = rv.malcev()
    assert automorphism_relations(m.mirrored, tuple(range(len(m.letters))), m) is None


def non_identity(maps) -> list:
    return [sigma for sigma in maps if sigma != tuple(range(len(sigma)))]


def test_wrong_maps_handed_in_are_not_used(monkeypatch):
    p = rv.colored_braid(3, ["a", "b"])
    maps = find_automorphisms(p)[0]
    wrong = ((0, 0, 2, 3), (1, 0, 2, 3), (0, 1, 2))
    monkeypatch.setattr(symmetry, "find_automorphisms", lambda q: (wrong + maps, True))
    syms = p.orbits[0]
    assert all(automorphism_relations(p, sigma) == images for sigma, images in syms)
    assert [sigma for sigma, _ in syms] == non_identity(maps)
    assert_reports_are_direct(p)


def test_mirror_reuses_the_automorphisms():
    cases = dict(catalog_presentations())
    cases.update(cb4abc=rv.colored_braid(4, ["a", "b", "c"]), b7=rv.braid(7))
    for name, p in cases.items():
        orbits = p.orbits
        assert p.mirrored.orbits is orbits, name
        syms = orbits[0]
        assert set(non_identity(find_automorphisms(rv.mirror(p))[0])) == {
            sigma for sigma, _ in syms
        }, name
        for sigma, images in syms:  # the mirror's verifier gives the same images
            assert automorphism_relations(p.mirrored, sigma) == images, name
    # The other way round: a presentation reuses its mirror's table.
    p = rv.restricted_colored(4, ["a", "b"])
    orbits = p.mirrored.orbits
    assert p.orbits is orbits
    assert set(non_identity(find_automorphisms(p)[0])) == {sigma for sigma, _ in orbits[0]}
    for sigma, images in orbits[0]:
        assert automorphism_relations(p, sigma) == images


def test_one_search_and_one_verification_per_presentation(monkeypatch):
    # The run over the mirror verifies the identity map from p onto it
    # once, and compiles the mirror's table once, as compiled data of
    # p.mirrored: a second run over p compiles none, nor does the defect.
    searched, verified, compiled = [], [], []
    search, verify, carry = find_automorphisms, automorphism_relations, symmetry.from_mirror

    def counted_search(p):
        searched.append(p)
        return search(p)

    def counted_verify(p, sigma, q=None):
        verified.append(sigma)
        return verify(p, sigma, q)

    def counted_from_mirror(source, p):
        compiled.append(p)
        return carry(source, p)

    monkeypatch.setattr(symmetry, "find_automorphisms", counted_search)
    monkeypatch.setattr(symmetry, "automorphism_relations", counted_verify)
    monkeypatch.setattr(symmetry, "from_mirror", counted_from_mirror)
    p = rv.colored_braid(4, ["a", "b"])
    rv.check_completeness.cache_clear()
    assert rv.check_completeness(p).verdict is Verdict.COMPLETE
    rv.defect(p)
    rv.check_right_cancellative(p)  # reads the mirror's completeness
    rv.check_completeness.cache_clear()
    rv.check_completeness(p)
    assert searched == [p]
    identity = tuple(range(len(p.letters)))
    assert verified == non_identity(search(p)[0]) + [identity] and len(verified) > 1
    assert len(compiled) == 1 and compiled[0] is p.mirrored


def test_an_equal_copy_of_the_mirror_lends_its_orbits(monkeypatch):
    # A run over q that reads the cached run over an equal copy of its
    # mirror takes that copy's orbit table, which is q's, and the defect
    # after it reads the same table: one automorphism search in all.
    searched = []
    search = find_automorphisms
    monkeypatch.setattr(symmetry, "find_automorphisms", lambda p: searched.append(p) or search(p))
    q = rv.colored_braid(4, ["a", "b"])
    copy = rv.mirror(q)
    assert copy == q.mirrored and copy is not q.mirrored
    rv.check_completeness.cache_clear()
    assert rv.check_completeness(copy).verdict is Verdict.COMPLETE
    assert all(is_carried(rep) for rep in rv.check_completeness(q).pairs)
    assert rv.defect(q).value is not None
    assert searched == [copy]
    assert q.orbits is copy.orbits
    # The copy equals q.mirrored, so q's compiled mirror table served the
    # run over q.
    assert "from_mirror" in vars(q)
    rv.check_completeness.cache_clear()


def test_transported_grids_equal_enumeration_of_the_image():
    specs = {
        "cb4abc": rv.colored_braid(4, ["a", "b", "c"]),
        "rc5abc": rv.restricted_colored(5, ["a", "b", "c"]),
        "cb3abcd": rv.colored_braid(3, ["a", "b", "c", "d"]),
        "b7": rv.braid(7),
    }
    reordered = 0
    for name, base in specs.items():
        for p in (base, rv.mirror(base)):
            maps, exhaustive = find_automorphisms(p)
            assert exhaustive and len(maps) > 1, name
            table, syms, record = symmetry.carry_source(p, {})
            assert table is p.orbits[1] and syms is p.orbits[0] and record == {}, name
            assert len(syms) == len(maps) - 1, name
            grids = {}

            def enumerate_side(s, side):
                if (s, side) not in grids:
                    grids[s, side] = rv.reverse_enumerate(p, (s,), side).grids
                return grids[s, side]

            for sigma, by_relation in syms:
                for s in range(len(p.letters)):
                    for rel in p.relations:
                        for side in (rel.lhs, rel.rhs):
                            source = ((sigma[s],), tuple(sigma[x] for x in side))
                            preimages = enumerate_side(s, side)
                            images, order = symmetry.carry(p, sigma, by_relation, preimages, source)
                            assert images == enumerate_side(*source[0], source[1]), (
                                name, sigma, s, rel.index
                            )
                            reordered += order != sorted(order)
    # Carrying grids does not keep their order, so the re-sort is needed.
    assert reordered > 0


def test_mirror_carried_grids_equal_enumeration_of_the_image():
    # m∘σ for p's first σ, and the identity m from p onto its mirror.
    specs = {
        "cb3abc": rv.colored_braid(3, ["a", "b", "c"]),
        "rc4abc": rv.restricted_colored(4, ["a", "b", "c"]),
        "b7": rv.braid(7),
    }
    for name, p in specs.items():
        q = p.mirrored
        table, syms = q.from_mirror
        # Every pair of q is listed, its preimage's run recorded or not.
        assert set(table) == {(s, rel.index) for s in range(len(q.letters)) for rel in q.relations}
        assert len(syms) == len(p.orbits[0]) + 1 > 1, name
        # A run over q reads the mirror run's record, if it holds anything.
        recorded = {(0, 0): None}
        assert symmetry.carry_source(q, {}, (p, recorded)) == (table, syms, recorded), name
        assert symmetry.carry_source(q, {}, (p, {}))[0] is q.orbits[1], name
        for sigma, by_relation in (syms[0], syms[-1]):
            for s in range(len(p.letters)):
                for rel in p.relations:
                    for side in (rel.lhs, rel.rhs):
                        source = ((sigma[s],), tuple(sigma[x] for x in side))
                        preimages = rv.reverse_enumerate(p, (s,), side).grids
                        images, _ = symmetry.carry(q, sigma, by_relation, preimages, source)
                        assert images == rv.reverse_enumerate(q, *source).grids, (
                            name, sigma, s, rel.index
                        )
    # No mirror source where the identity is no isomorphism: the own orbits only.
    m = rv.malcev()
    assert m.mirrored.from_mirror is None
    own = symmetry.carry_source(m.mirrored, {}, (m, {(0, 0): None}))
    assert own[:2] == m.mirrored.orbits[::-1]


def test_mirror_carried_grids_equal_enumeration_on_multi_relation_presentations():
    # Cells with several relation tiles: a carried relation tile is the
    # image cell's tile of its image relation and orientation.
    b = rv.Budget(max_cells=40, max_grids=40)
    seen = {"grids": 0, "several": 0}

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(multi_relation_presentations().map(with_mirror))
    def check(p):
        q = p.mirrored
        _, syms = q.from_mirror
        for sigma, by_relation in syms:
            for s in range(len(p.letters)):
                for side in {side for rel in p.relations for side in (rel.lhs, rel.rhs)}:
                    out = rv.reverse_enumerate(p, (s,), side, b)
                    source = ((sigma[s],), tuple(sigma[x] for x in side))
                    want = rv.reverse_enumerate(q, *source, b)
                    assert out.completed == want.completed
                    if out.completed:
                        images = symmetry.carry(q, sigma, by_relation, out.grids, source)[0]
                        assert images == want.grids, (sigma, s, side)
                        seen["grids"] += len(want.grids)
                        seen["several"] += sum(
                            any(len(q.tile_table.get((c.left, c.top), ())) > 1 for c in g.cells)
                            for g in want.grids
                        )

    check()
    assert seen["several"] and seen["grids"], seen


def test_check_completeness_equals_standalone_diamonds():
    cases = dict(catalog_presentations())
    cases["cb3abc"] = rv.colored_braid(3, ["a", "b", "c"])
    for name, p in cases.items():
        for q in (p, rv.mirror(p)):
            assert_reports_are_direct(q)
    # Incomplete class maps: those orbits are checked pair by pair.
    for size in (3, 5):
        b = rv.Budget(max_class_size=size)
        assert_reports_are_direct(rv.colored_braid(4, ["a", "b"]), b)
        assert_reports_are_direct(rv.restricted_colored(4, ["a", "b"]), b)
    # Inconclusive representatives.
    assert_reports_are_direct(rv.colored_braid(4, ["a", "b"]), rv.Budget(max_cells=3))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(symmetric_presentations(), st.sampled_from([100_000, 3, 2]))
def test_random_symmetric_presentations(p, max_class_size):
    b = rv.Budget(max_class_size=max_class_size, max_cells=60, max_grids=60)
    assert_reports_are_direct(p, b)
    assert_reports_are_direct(rv.mirror(p), b)
    assert_reports_are_direct(rv.mirror(p), b, after=p)  # carried where p is self-mirror


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(artin_presentations(), symmetric_presentations().map(with_mirror)),
    st.sampled_from([100_000, 3, 2]),
)
def test_random_self_mirror_presentations(p, max_class_size):
    # Each run after the other carries from it what the other recorded.
    assert automorphism_relations(p.mirrored, tuple(range(len(p.letters))), p) is not None
    b = rv.Budget(max_class_size=max_class_size, max_cells=60, max_grids=60)
    assert_reports_are_direct(p.mirrored, b, after=p)
    assert_reports_are_direct(p, b, after=p.mirrored)


def test_node_cap_stops_the_search_and_keeps_the_reports():
    free = [f"f{i}" for i in range(10)]
    p = rv.make_presentation(
        ["a", "b", "c", *free], [("a b a", "b a b"), ("b c b", "c b c"), ("a c", "c a")]
    )
    maps, exhaustive = find_automorphisms(p)
    assert not exhaustive
    assert all(automorphism_relations(p, sigma) is not None for sigma in maps)
    assert p.orbits[1]  # some pairs are still carried over
    assert_reports_are_direct(p)
    assert_reports_are_direct(rv.mirror(p))


def test_first_import_keeps_working_after_a_second_import():
    """A process may import the package again under the same names, as the
    benchmark's set-up does.  The first import's modules must keep working:
    the orbit and mirror tables are built by whichever import is current,
    so they hold plain ints only, and the transport comes with the first
    import.  The second import must work on the first one's presentations,
    whose tile tables hold the first import's tiles."""
    import importlib
    import sys

    def package() -> dict:
        return {
            name: module
            for name, module in sys.modules.items()
            if name == "reversal" or name.startswith("reversal.")
        }

    def cb42_mirror():
        return rv.mirror(rv.colored_braid(4, ["a", "b"]))

    rv.check_completeness.cache_clear()
    want = rv.defect(cb42_mirror())
    first = package()
    try:
        for name in first:
            del sys.modules[name]
        importlib.import_module("reversal")
        importlib.import_module("reversal.symmetry")
        p = cb42_mirror()  # of the first import
        q = rv.restricted_colored(4, ["a", "b"]).mirrored
        assert_reports_are_direct(p)
        rv.check_completeness.cache_clear()
        assert rv.defect(p) == want
        # Witnesses of carried counterexamples, read first.
        bad = [
            rep for rep in rv.check_completeness(q).pairs
            if is_carried(rep) and rep.status is DiamondStatus.COUNTEREXAMPLE
        ]
        assert bad
        for rep in bad:
            direct = rv.check_diamond(q, rep.generator, rep.relation)
            assert rep.witness == direct[rep.direction == RHS_TO_LHS].witness
            assert type(rep.witness) is rv.Grid and rv.check_grid(q, rep.witness).ok
        # The second import over a presentation whose orbit and mirror
        # tables the first compiled: plain ints, which it carries with.
        second = sys.modules["reversal"]
        second.check_completeness.cache_clear()
        for side in (q, q.mirrored):
            report = second.check_completeness(side)
            assert report.verdict.value == "incomplete"
            for rep in report.pairs:
                rep.witness, rep.src_grids, rep.dst_grids
    finally:
        for name in package():
            del sys.modules[name]
        sys.modules.update(first)
