from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reversal as rv
from conftest import rand_word
from reversal.completeness import (
    DiamondContext,
    DiamondStatus,
    LHS_TO_RHS,
    RHS_TO_LHS,
    Verdict,
    completeness_to_json,
)
from reversal.congruence import EquivStatus, INFINITE
from strategies import artin_presentations, symmetric_presentations


def find_relation(p: rv.Presentation, lhs: str, rhs: str) -> rv.Relation:
    want = frozenset((p.word(lhs), p.word(rhs)))
    for r in p.relations:
        if r.as_pair() == want:
            return r
    raise AssertionError(f"no relation {lhs} = {rhs}")


def test_diamond_colored_case1(colored42):
    # Generator s1.a against a colored braid relation on positions 2, 3.
    p = colored42
    rel = find_relation(p, "s2.b s3.a s2.b", "s3.b s2.a s3.b")
    fwd, bwd = rv.check_diamond(p, p.letter("s1.a"), rel)
    assert fwd.status is DiamondStatus.VERIFIED
    assert bwd.status is DiamondStatus.VERIFIED
    assert len(fwd.src_grids) == 4 and len(fwd.dst_grids) == 4
    assert all(m is not None for m in fwd.matching)


def test_diamond_colored_case2(colored42):
    p = colored42
    rel = find_relation(p, "s1.b s3.a", "s3.a s1.b")
    fwd, bwd = rv.check_diamond(p, p.letter("s2.a"), rel)
    assert fwd.status is DiamondStatus.VERIFIED
    assert bwd.status is DiamondStatus.VERIFIED
    assert len(fwd.src_grids) == 8  # three free colors over two choices each


def test_diamond_restricted_counterexample_three_colors():
    p = rv.restricted_colored(4, ["a", "b", "c"])
    rel = find_relation(p, "s3.c s2.c s3.b", "s2.b s3.c s2.c")
    reports = rv.check_diamond(p, p.letter("s1.a"), rel)
    failing = [r for r in reports if r.status is DiamondStatus.COUNTEREXAMPLE]
    assert failing, "the diamond must fail for s1.a"
    witness = failing[0].witness
    assert witness is not None and failing[0].exhausted
    # The witness grid is the one from (s1.a, s3.c s2.c s3.b).
    assert witness.source == (p.word("s1.a"), p.word("s3.c s2.c s3.b"))
    assert witness.target == (
        p.word("s1.a s2.b s3.a"),
        p.word("s3.c s2.a s1.c s3.b s2.b"),
    )


def test_counterexample_certification():
    # Re-check the stored witness against the exhaustively enumerated other
    # side: no target-equivalent grid may exist.
    p = rv.restricted_colored(4, ["a", "b"])
    report = rv.check_completeness(p)
    rep = report.witness
    assert rep is not None
    out = rv.reverse_enumerate(p, (rep.generator,), rep.relation.lhs
                               if rep.direction == RHS_TO_LHS else rep.relation.rhs)
    assert out.completed
    for g in out.grids:
        for w1, w2 in zip(rep.witness.target, g.target):
            same = rv.are_equivalent(p, w1, w2)
            if same.status is not EquivStatus.EQUIVALENT:
                break
        else:
            raise AssertionError("witness grid has an equivalent counterpart")


def test_completeness_verdicts_fast():
    assert rv.check_completeness(rv.braid(3)).verdict is Verdict.COMPLETE
    assert rv.check_completeness(rv.braid(4)).verdict is Verdict.COMPLETE
    assert rv.check_completeness(rv.malcev()).verdict is Verdict.COMPLETE
    rep = rv.check_completeness(rv.restricted_colored(4, ["a", "b"]))
    assert rep.verdict is Verdict.INCOMPLETE
    assert rep.witness is not None


def test_completeness_report_lists_both_directions(braid3):
    rep = rv.check_completeness(braid3)
    dirs = {(r.generator, r.relation.index, r.direction) for r in rep.pairs}
    for s in range(len(braid3.letters)):
        for rel in braid3.relations:
            assert (s, rel.index, LHS_TO_RHS) in dirs
            assert (s, rel.index, RHS_TO_LHS) in dirs


def test_a_generator_outside_p_raises_the_same_error_within_a_run(braid4):
    # A run's context carries only pairs of p; another pair is checked, and
    # fails as it does alone, whichever source the context carries from.
    p = braid4
    rv.check_completeness.cache_clear()
    rv.check_completeness(p)  # so a context over the mirror carries from it
    for q in (p, p.mirrored):
        for s in (len(q.letters), -1):
            for context in (None, DiamondContext(q, rv.DEFAULT_BUDGET)):
                with pytest.raises(rv.PresentationError, match=f"^unknown letter id {s}$"):
                    rv.check_diamond(q, s, q.relations[0], rv.DEFAULT_BUDGET, context)
    rv.check_completeness.cache_clear()


def test_completeness_inhomogeneous_is_inconclusive():
    p = rv.parse_presentation("gens: a b\nrel: a = b b")
    rep = rv.check_completeness(p)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert "homogeneous" in rep.reason


def test_completeness_epsilon_relation_is_inconclusive():
    p = rv.parse_presentation("gens: a\nrel: a a = 1")
    rep = rv.check_completeness(p)
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_decide_equiv_by_reversing_examples(braid4):
    p = braid4
    assert rv.decide_equiv_by_reversing(p, p.word("s1 s2 s1"), p.word("s2 s1 s2"))
    assert rv.decide_equiv_by_reversing(p, p.word("s1"), p.word("s2")) is False

    pr = rv.restricted_colored(4, ["a", "b"])
    u = pr.word("s2.b s3.b s2.b s1.a s2.b s3.a")
    v = pr.word("s1.a s3.b s2.a s1.b s3.b s2.b")
    assert rv.are_equivalent(pr, u, v).is_equivalent
    assert rv.decide_equiv_by_reversing(pr, u, v) is False


def test_oracle_reversing_agreement_exhaustive_braid3(braid3):
    assert rv.check_completeness(braid3).verdict is Verdict.COMPLETE
    words = [
        w
        for length in range(7)
        for w in itertools.product(range(len(braid3.letters)), repeat=length)
    ]
    for u in words:
        for v in words:
            eq = rv.are_equivalent(braid3, u, v).is_equivalent
            byrev = rv.decide_equiv_by_reversing(braid3, u, v)
            assert byrev is not None and eq == byrev


def test_oracle_reversing_agreement_sampled():
    # Soundness of the checker verdict: where completeness holds, reversing
    # and the oracle agree.
    for p in (rv.braid(4), rv.colored_braid(3, ["a", "b"]), rv.malcev()):
        assert rv.check_completeness(p).verdict is Verdict.COMPLETE
        rng = random.Random(61)
        for _ in range(80):
            u = rand_word(rng, p, 6)
            v = rand_word(rng, p, 6)
            eq = rv.are_equivalent(p, u, v).is_equivalent
            byrev = rv.decide_equiv_by_reversing(p, u, v)
            assert byrev is not None
            assert eq == byrev


def test_defect_free_monoid_is_zero():
    free = rv.make_presentation(["a", "b"], [])
    res = rv.defect(free)
    assert res.value == 0


def test_defect_small_catalog_values():
    assert rv.defect(rv.braid(3)).value == 0
    assert rv.defect(rv.malcev()).value == 0
    assert rv.defect(rv.braid(4)).value == 5  # pinned from exhaustive matching


def test_defect_incomplete_is_infinite():
    res = rv.defect(rv.restricted_colored(4, ["a", "b"]))
    assert res.value == INFINITE
    assert res.witness is not None


def test_defect_consistency(braid4):
    # Every source grid must have an equivalent counterpart within the
    # reported value.
    res = rv.defect(braid4)
    rep = rv.check_completeness(braid4)
    for pair in rep.pairs:
        for g in pair.src_grids:
            dists = []
            for g2 in pair.dst_grids:
                o1 = rv.are_equivalent(braid4, g.target[0], g2.target[0])
                o2 = rv.are_equivalent(braid4, g.target[1], g2.target[1])
                if o1.is_equivalent and o2.is_equivalent:
                    dists.append(o1.distance + o2.distance)
            assert dists and min(dists) <= res.value


def test_completeness_json_shape(braid3):
    doc = completeness_to_json(braid3, rv.check_completeness(braid3))
    assert doc["verdict"] == "complete"
    assert all(
        {"generator", "relation_index", "direction", "status"} <= set(e)
        for e in doc["pairs"]
    )


def _oracle_distance(p, cache, g1, g2):
    """Summed `are_equivalent` distances of the two targets; None if some
    component is not equivalent."""
    total = 0
    for w1, w2 in zip(g1.target, g2.target):
        if (w1, w2) not in cache:
            outcome = rv.are_equivalent(p, w1, w2)
            assert outcome.decided
            cache[(w1, w2)] = outcome.distance if outcome.is_equivalent else None
        if cache[(w1, w2)] is None:
            return None
        total += cache[(w1, w2)]
    return total


def test_matching_and_defect_agree_with_bidirectional_oracle():
    bases = [
        rv.colored_braid(4, ["a", "b"]),
        rv.restricted_colored(4, ["a", "b"]),
        rv.braid(4),
        rv.malcev(),
    ]
    for p in bases + [rv.mirror(q) for q in bases]:
        cache: dict = {}
        report = rv.check_completeness(p)
        assert report.pairs
        for rep in report.pairs:
            assert rep.status is not DiamondStatus.INCONCLUSIVE
            for g, found in zip(rep.src_grids, rep.matching, strict=True):
                first = next(
                    (
                        j
                        for j, g2 in enumerate(rep.dst_grids)
                        if _oracle_distance(p, cache, g, g2) is not None
                    ),
                    None,
                )
                assert found == first
            unmatched = [g for g, m in zip(rep.src_grids, rep.matching) if m is None]
            assert rep.witness == (unmatched[0] if unmatched else None)

    p = rv.colored_braid(4, ["a", "b"])
    cache = {}
    expected = max(
        min(
            d
            for g2 in rep.dst_grids
            if (d := _oracle_distance(p, cache, g, g2)) is not None
        )
        for rep in rv.check_completeness(p).pairs
        for g in rep.src_grids
    )
    assert rv.defect(p).value == expected


LOW_BUDGETS = st.fixed_dictionaries(
    {
        "max_class_size": st.integers(1, 12),
        "max_cells": st.integers(1, 30),
        "max_grids": st.integers(1, 6),
        "max_word_weight": st.integers(1, 6),
    }
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(symmetric_presentations(), artin_presentations()),
    LOW_BUDGETS,
    st.dictionaries(
        st.sampled_from([f.name for f in dataclasses.fields(rv.Budget)]),
        st.integers(1, 100),
        min_size=1,
    ),
)
def test_raising_any_budget_never_flips_a_completeness_verdict(p, low, more):
    tight = rv.Budget(**low)
    loose = dataclasses.replace(tight, **{k: low[k] + d for k, d in more.items()})
    for q in (p, p.mirrored):
        verdict = rv.check_completeness(q, tight).verdict
        if verdict is not Verdict.INCONCLUSIVE:
            assert rv.check_completeness(q, loose).verdict is verdict
