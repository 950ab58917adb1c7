from __future__ import annotations

import random

import reversal as rv
from conftest import catalog_presentations, rand_word
from reversal.congruence import EquivStatus, rewrite_neighbors


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
    from reversal.congruence import class_distances

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


def test_explored_counts_words_visited(braid4):
    o = rv.are_equivalent(braid4, braid4.word("s1 s2 s1"), braid4.word("s2 s1 s2"))
    assert o.explored >= 2
