from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

import reversal as rv
from conftest import rand_word
from reversal.cancellativity import CancelStatus, MultipleKind


def left_divides(p: rv.Presentation, d: rv.Word, z: rv.Word) -> bool:
    """Brute-force left divisibility: some member of z's class has d as a
    word prefix.  Independent of the reversing machinery."""
    cls = rv.equivalence_class(p, z)
    assert cls.complete
    return any(w[: len(d)] == d for w in cls.words)


def test_left_cancellative_examples(colored42):
    assert rv.check_left_cancellative(colored42).status is CancelStatus.CANCELLATIVE
    assert rv.check_left_cancellative(rv.malcev()).status is CancelStatus.CANCELLATIVE
    v = rv.check_left_cancellative(rv.restricted_colored(4, ["a", "b"]))
    assert v.status is CancelStatus.NOT_BY_THIS_CRITERION
    assert "not complete" in v.reason


def test_right_cancellative_examples(braid4, colored42):
    assert rv.check_right_cancellative(colored42).status is CancelStatus.CANCELLATIVE
    assert rv.check_right_cancellative(braid4).status is CancelStatus.CANCELLATIVE
    p = rv.parse_presentation("gens: a b c\nrel: b a = c a")
    v = rv.check_right_cancellative(p)
    assert v.status is CancelStatus.NOT_BY_THIS_CRITERION
    assert "s·w = s·w'" in v.reason


def test_conflict_beats_completeness():
    p = rv.parse_presentation("gens: a b c\nrel: a b = a c")
    v = rv.check_left_cancellative(p)
    assert v.status is CancelStatus.NOT_BY_THIS_CRITERION
    assert [r.index for r in v.conflicts] == [0]


def test_mirror_duality(colored42):
    left_of_mirror = rv.check_left_cancellative(rv.mirror(colored42))
    right = rv.check_right_cancellative(colored42)
    assert right.side == "right"
    assert right.status == left_of_mirror.status
    assert right.completeness == left_of_mirror.completeness
    assert right.conflicts == left_of_mirror.conflicts


def test_common_right_multiple_examples(braid4, colored42):
    p = colored42
    res = rv.common_right_multiple(p, p.word("s1.a"), p.word("s1.b"))
    assert res.kind is MultipleKind.NO_COMMON_MULTIPLE
    assert (p.letter("s1.a"), p.letter("s1.b")) in res.stuck

    res = rv.common_right_multiple(braid4, braid4.word("s1"), braid4.word("s2"))
    assert res.kind is MultipleKind.MULTIPLE
    assert res.multiple == braid4.word("s1 s2 s1")

    u = braid4.word("s3 s1")
    res = rv.common_right_multiple(braid4, u, ())
    assert res.kind is MultipleKind.MULTIPLE
    assert res.multiple == u


def test_common_right_multiple_requires_completeness():
    p = rv.restricted_colored(4, ["a", "b"])
    res = rv.common_right_multiple(p, p.word("s1.a"), p.word("s2.a"))
    assert res.kind is MultipleKind.INCONCLUSIVE


def test_common_multiple_is_right_multiple_of_both(colored42):
    p = colored42
    rng = random.Random(71)
    for _ in range(20):
        u = rand_word(rng, p, 3)
        v = rand_word(rng, p, 3)
        res = rv.common_right_multiple(p, u, v)
        if res.kind is not MultipleKind.MULTIPLE:
            continue
        u1, v1 = res.complements
        assert res.multiple == u + v1
        o = rv.are_equivalent(p, u + v1, v + u1)
        assert o.is_equivalent


def test_right_lcm_examples(braid4):
    p = braid4
    res = rv.right_lcm(p, p.word("s1"), p.word("s2"))
    assert res.kind is MultipleKind.LCM
    assert res.multiple == p.word("s1 s2 s1")

    res = rv.right_lcm(p, p.word("s1"), p.word("s3"))
    assert res.kind is MultipleKind.LCM
    assert res.multiple == p.word("s1 s3")

    u = p.word("s2 s3")
    res = rv.right_lcm(p, u, u)
    assert res.multiple == u and res.complements == ((), ())


def test_right_lcm_precondition(colored42):
    with pytest.raises(rv.PresentationError, match="complemented"):
        rv.right_lcm(colored42, colored42.word("s1.a"), colored42.word("s2.a"))


def test_right_lcm_minimality_bruteforce(braid3):
    # Every common right multiple of weight <= 6 is a right multiple of the
    # lcm; divisibility checked by class-prefix enumeration.
    p = braid3
    small = [p.word(s) for s in ("s1", "s2", "s1 s2", "s2 s1", "s1 s1")]
    all_words = [
        w
        for length in range(7)
        for w in itertools.product(range(len(p.letters)), repeat=length)
    ]
    for u, v in itertools.combinations(small, 2):
        res = rv.right_lcm(p, u, v)
        assert res.kind is MultipleKind.LCM
        for z in all_words:
            if left_divides(p, u, z) and left_divides(p, v, z):
                assert left_divides(p, res.multiple, z), (u, v, z)


def test_cancellation_soundness_spot_check():
    # Where the criterion says cancellative, the oracle must never find
    # s·u ≡ s·v with u, v inequivalent.
    for p in (rv.colored_braid(3, ["a", "b"]), rv.malcev()):
        assert rv.check_left_cancellative(p).status is CancelStatus.CANCELLATIVE
        rng = random.Random(83)
        for _ in range(40):
            s = rng.randrange(len(p.letters))
            u = rand_word(rng, p, 4)
            cls = rv.equivalence_class(p, (s,) + u)
            assert cls.complete
            for w in cls.words:
                if w[:1] == (s,):
                    assert rv.are_equivalent(p, u, w[1:]).is_equivalent


def lcm_cases():
    """Seeded random word pairs in braid(3)–braid(6), and in a relation-free
    presentation, where every pair of distinct letters is stuck."""
    free = rv.parse_presentation("gens: a b c\n")
    for p in (*(rv.braid(n) for n in range(3, 7)), free):
        rng = random.Random(f"lcm-oracle:{p.letters}")
        for _ in range(40):
            yield p, rand_word(rng, p, 6), rand_word(rng, p, 6)


def test_right_lcm_matches_grid_and_common_multiple():
    kinds = Counter()
    for p, u, v in lcm_cases():
        res = rv.right_lcm(p, u, v)
        kinds[res.kind] += 1
        outcome = rv.reverse_complemented(p, u, v)
        assert outcome.completed
        if outcome.grids:
            (g,) = outcome.grids
            assert res.kind is MultipleKind.LCM
            assert res.complements == g.target and res.multiple == u + g.target[1]
        else:
            assert res.kind is MultipleKind.NO_COMMON_MULTIPLE
            assert res.stuck == outcome.stuck
        multiple = rv.common_right_multiple(p, u, v)
        assert (multiple.kind is MultipleKind.MULTIPLE) == (res.kind is MultipleKind.LCM)
        found = (multiple.multiple, multiple.complements, multiple.stuck)
        assert found == (res.multiple, res.complements, res.stuck)
    assert kinds[MultipleKind.LCM] and kinds[MultipleKind.NO_COMMON_MULTIPLE]


def test_lcm_and_multiple_budget_monotone():
    # Raising max_cells may decide more, and never changes a decided answer.
    tight = rv.Budget(max_cells=8)
    decided = Counter()
    for p, u, v in lcm_cases():
        for find in (rv.right_lcm, rv.common_right_multiple):
            low = find(p, u, v, tight)
            decided[low.kind is not MultipleKind.INCONCLUSIVE] += 1
            if low.kind is not MultipleKind.INCONCLUSIVE:
                assert find(p, u, v) == low, (find.__name__, u, v)
    assert decided[True] and decided[False]
