from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reversal as rv
from conftest import catalog_presentations, rand_word
from reversal.congruence import EquivStatus, class_distances, rewrite_neighbors


def naive_class(p: rv.Presentation, w: rv.Word) -> set[rv.Word]:
    # Independent fixpoint closure, no distances, no queue discipline.
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for cur in frontier:
            for other in rewrite_neighbors(p, cur):
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        frontier = nxt
    return seen


def test_class_braid4(braid4):
    w = braid4.word("s1 s2 s1")
    res = rv.equivalence_class(braid4, w)
    assert res.complete
    assert res.words == frozenset({w, braid4.word("s2 s1 s2")})


def test_class_restricted_three_colors():
    p = rv.restricted_colored(4, ["a", "b", "c"])
    res = rv.equivalence_class(p, p.word("s3.c s2.a s1.c s3.b s2.b"))
    assert res.complete
    assert res.words == frozenset(
        {p.word("s3.c s2.a s1.c s3.b s2.b"), p.word("s3.c s2.a s3.b s1.c s2.b")}
    )


def test_class_of_empty_word(braid4):
    res = rv.equivalence_class(braid4, ())
    assert res.complete and res.words == frozenset({()})


def test_class_matches_naive_closure(braid3):
    rng = random.Random(11)
    for _ in range(40):
        w = rand_word(rng, braid3, 5)
        res = rv.equivalence_class(braid3, w)
        assert res.complete
        assert set(res.words) == naive_class(braid3, w)


def test_class_closure_and_weight_invariance():
    for name, p in catalog_presentations().items():
        for k in range(3):
            rng = random.Random(f"closure:{name}:{k}")
            for _ in range(10):
                w = rand_word(rng, p, 4)
                res = rv.equivalence_class(p, w)
                assert res.complete, name
                weights = {p.word_weight(x) for x in res.words}
                assert weights == {p.word_weight(w)}
                for x in res.words:
                    for y in rewrite_neighbors(p, x):
                        assert y in res.words


def test_are_equivalent_examples(braid4):
    w = braid4.word("s1 s3 s2")
    assert rv.are_equivalent(braid4, w, w).distance == 0

    o = rv.are_equivalent(braid4, braid4.word("s1 s2 s1"), braid4.word("s2 s1 s2"))
    assert o.status is EquivStatus.EQUIVALENT and o.distance == 1

    pc = rv.colored_braid(4, ["a", "b"])
    o = rv.are_equivalent(pc, pc.word("s1.a"), pc.word("s1.b"))
    assert o.status is EquivStatus.NOT_EQUIVALENT


def test_are_equivalent_counter_pair_three_colors():
    p = rv.restricted_colored(4, ["a", "b", "c"])
    u = p.word("s2.b s3.c s2.c s1.a s2.b s3.a")
    v = p.word("s1.a s3.c s2.a s1.c s3.b s2.b")
    o = rv.are_equivalent(p, u, v)
    assert o.status is EquivStatus.EQUIVALENT
    assert o.distance == 5  # >= 2: the proof needs an intermediate word
    assert o.distance >= 2


def test_comb_distance_examples(braid4):
    w = braid4.word("s2 s3")
    assert rv.are_equivalent(braid4, w, w).distance == 0
    o = rv.are_equivalent(braid4, braid4.word("s1 s3"), braid4.word("s3 s1"))
    assert o.status is EquivStatus.EQUIVALENT and o.distance == 1
    o = rv.are_equivalent(braid4, braid4.word("s1 s2 s1"), braid4.word("s1 s3 s1"))
    assert o.status is EquivStatus.NOT_EQUIVALENT and o.distance is None


def test_comb_distance_infinite_against_naive_enumeration(braid4):
    u = braid4.word("s1 s2 s1")
    v = braid4.word("s1 s3 s1")
    assert v not in naive_class(braid4, u)


def test_equivalence_relation_properties():
    for p in (rv.braid(3), rv.braid(4)):
        rng = random.Random(99)
        words = [rand_word(rng, p, 4) for _ in range(30)]
        for u in words[:10]:
            assert rv.are_equivalent(p, u, u).distance == 0
        for u, v, w in zip(words, words[10:], words[20:]):
            ouv = rv.are_equivalent(p, u, v)
            ovu = rv.are_equivalent(p, v, u)
            assert ouv.status == ovu.status
            assert ouv.distance == ovu.distance
            ovw = rv.are_equivalent(p, v, w)
            ouw = rv.are_equivalent(p, u, w)
            if ouv.is_equivalent and ovw.is_equivalent:
                assert ouw.is_equivalent
                assert ouw.distance <= ouv.distance + ovw.distance
            if ouv.is_equivalent and not ovw.is_equivalent:
                assert not ouw.is_equivalent


def test_bidirectional_distance_matches_full_bfs():
    # The single-source closure yields exact distances; the bidirectional
    # search must reproduce them word for word.
    for p in (rv.braid(3), rv.colored_braid(3, ["a", "b"])):
        rng = random.Random(13)
        for _ in range(15):
            u = rand_word(rng, p, 5)
            dist, complete = class_distances(p, u)
            assert complete
            members = sorted(dist)
            for v in members[:: max(1, len(members) // 10)]:
                o = rv.are_equivalent(p, u, v)
                assert o.is_equivalent and o.distance == dist[v]


def test_distance_zero_iff_equal(braid3):
    rng = random.Random(5)
    for _ in range(30):
        u = rand_word(rng, braid3, 4)
        v = rand_word(rng, braid3, 4)
        o = rv.are_equivalent(braid3, u, v)
        assert o.decided
        assert (o.distance == 0) == (u == v)


def test_budget_exhaustion_is_explicit(braid3):
    tight = rv.Budget(max_class_size=2, max_cells=10, max_grids=10, max_word_weight=12)
    u = braid3.word("s1 s2 s1 s2 s1")
    v = braid3.word("s2 s1 s2 s2 s1")
    o = rv.are_equivalent(braid3, u, v, tight)
    assert o.status in (EquivStatus.BUDGET_EXHAUSTED, EquivStatus.EQUIVALENT)
    res = rv.equivalence_class(braid3, u, tight)
    assert not res.complete


def test_weight_cap_holds_where_rewriting_changes_the_weight():
    # a = b a grows without end: only the weight cap stops the search.
    p = rv.make_presentation(["a", "b"], [(["a"], ["b", "a"])])
    assert not p.weight_homogeneous
    dist, complete = class_distances(p, p.word("a"))
    assert len(dist) == 12 and not complete
    o = rv.are_equivalent(p, p.word("a"), p.word("b"))
    assert o.status is EquivStatus.BUDGET_EXHAUSTED
    o = rv.are_equivalent(p, p.word("a a"), p.word("b"))
    assert (o.status, o.explored) == (EquivStatus.NOT_EQUIVALENT, 4)


def test_searches_of_a_homogeneous_presentation_read_no_weight(braid4, monkeypatch):
    # Rewriting keeps the weight there, so the cap can never fire.
    assert braid4.weight_homogeneous
    weighed = []
    weight = rv.Presentation.word_weight
    monkeypatch.setattr(
        rv.Presentation, "word_weight", lambda p, w: weighed.append(w) or weight(p, w)
    )
    u, v = braid4.word("s1 s2 s1 s3 s2"), braid4.word("s3 s2 s1 s3 s2")
    assert class_distances(braid4, u)[1]
    assert rv.are_equivalent(braid4, u, v).decided
    assert weighed == []


# Floats include nan and the infinities.
NOT_A_COUNT = st.one_of(st.floats(), st.booleans(), st.integers(max_value=0))


@pytest.mark.parametrize(
    "limit", ["max_class_size", "max_cells", "max_grids", "max_word_weight"]
)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(NOT_A_COUNT, st.integers(1, 10**9))
def test_budget_limits_are_positive_counts(limit, bad, good):
    with pytest.raises(ValueError, match=limit):
        rv.Budget(**{limit: bad})
    assert getattr(rv.Budget(**{limit: good}), limit) == good


def test_explored_counts_words_visited(braid4):
    o = rv.are_equivalent(braid4, braid4.word("s1 s2 s1"), braid4.word("s2 s1 s2"))
    assert o.explored >= 2


def test_unknown_letter_ids_are_rejected(braid4):
    for bad in ((3,), (-1,), (0, 7)):
        with pytest.raises(rv.PresentationError, match="unknown letter id"):
            rv.are_equivalent(braid4, bad, (0,))
        with pytest.raises(rv.PresentationError, match="unknown letter id"):
            rv.equivalence_class(braid4, bad)


def test_letter_ids_must_be_ints(braid3):
    # The same rule as for budget limits: a float or a bool is no letter id,
    # although 1.0 == 1 and True == 1.
    for bad in ("ab", (1.0,), (True,), (0, False), (None,)):
        with pytest.raises(rv.PresentationError, match="is not an int"):
            rv.right_lcm(braid3, bad, (0,))
        with pytest.raises(rv.PresentationError, match="is not an int"):
            rv.reverse_targets(braid3, (0,), bad)
        with pytest.raises(rv.PresentationError, match="is not an int"):
            rv.are_equivalent(braid3, bad, (0,))


def test_word_distance_reads_either_class_map():
    # Under a tight class budget, a pair that w1's partial class map leaves
    # open can be decided by w2's; every decided value is exact, and only
    # the maps of w1 and w2 are read.
    from reversal.congruence import INFINITE, class_distances, word_distance

    tight = rv.Budget(max_class_size=3)
    for p in (rv.braid(4), rv.colored_braid(3, ["a", "b"])):
        rng = random.Random("word-distance")
        by_second_map = 0
        for _ in range(300):
            u = rand_word(rng, p, 5)
            v = tuple(rng.sample(u, len(u)))
            read = []

            def class_map(w):
                read.append(w)
                return class_distances(p, w, tight)

            assert word_distance(u, u, class_map) == 0 and not read
            d = word_distance(u, v, class_map)
            assert read in (([],) if u == v else ([u], [u, v]))
            if d is None:
                continue
            o = rv.are_equivalent(p, u, v)
            assert d == (o.distance if o.is_equivalent else INFINITE)
            dist, complete = class_distances(p, u, tight)
            by_second_map += v not in dist and not complete
        assert by_second_map > 0


def test_no_class_map_outlives_its_call():
    # Class maps are computed per call (or per diamond-check run), never
    # kept by the module: after many class enumerations almost nothing of
    # them is still allocated.
    import gc
    import tracemalloc

    p = rv.colored_braid(4, ["a", "b", "c"])
    rng = random.Random("class-maps")
    words = [tuple(rng.randrange(len(p.letters)) for _ in range(10)) for _ in range(300)]
    rv.check_completeness.cache_clear()
    p.rewrite_index  # compiled data belongs to the presentation
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for w in words:
            assert rv.equivalence_class(p, w).explored >= 1
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1_000_000
