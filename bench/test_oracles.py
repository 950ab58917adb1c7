"""Each checker of the benchmark can fail.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

import oracles
import workloads

# braid(3): s1 = 0, s2 = 1; braid(4) adds s3 = 2.
BRAID3 = oracles.side_index([((0, 1, 0), (1, 0, 1))])
BRAID4 = oracles.side_index([((0, 1, 0), (1, 0, 1)), ((0, 2), (2, 0)), ((1, 2, 1), (2, 1, 2))])
T = 1_000_003


def test_closure_joins_and_separates():
    assert (1, 0, 1) in oracles.closure(BRAID3, (0, 1, 0))
    assert (1, 0) not in oracles.closure(BRAID3, (0, 1))
    assert oracles.closure(BRAID3, (0, 0)) == {(0, 0)}


def test_closure_refuses_to_truncate():
    with pytest.raises(RuntimeError):
        oracles.closure(BRAID4, (0, 2) * 4, limit=3)


def test_random_rewrites_stay_in_the_class():
    rng = random.Random(1)
    w = (0, 1, 0, 2, 1, 2, 0)
    for k in range(6):
        assert oracles.random_rewrites(rng, BRAID4, w, k) in oracles.closure(BRAID4, w)
    assert oracles.random_rewrites(rng, BRAID3, (0, 0), 3) == (0, 0)


def test_invariants_tell_words_apart():
    braid = oracles.Alphabet(["s1", "s2"], 3)
    colored = oracles.Alphabet(["s1.a", "s1.b", "s2.a", "s2.b"], 3)
    assert braid.invariants((0, 1, 0)) == braid.invariants((1, 0, 1))
    assert braid.invariants((0,)) != braid.invariants((0, 0))  # length
    assert braid.invariants((0, 1)) != braid.invariants((1, 0))  # permutation
    assert colored.invariants((0,)) != colored.invariants((1,))  # colours
    # s1.a s2.b s1.a = s2.a s1.b s2.a keeps the colour multiset.
    assert colored.invariants((0, 3, 0)) == colored.invariants((2, 1, 2))


def test_burau_separates_what_invariants_miss():
    braid = oracles.Alphabet(["s1", "s2"], 3)
    assert braid.invariants((0, 0)) == braid.invariants((1, 1))
    assert braid.burau((0, 0), T) != braid.burau((1, 1), T)
    assert braid.burau((0, 1), T) != braid.burau((1, 0), T)
    assert braid.burau((0, 1, 0), T) == braid.burau((1, 0, 1), T)
    b4 = oracles.Alphabet(["s1", "s2", "s3"], 4)
    assert b4.burau((0, 2), T) == b4.burau((2, 0), T)


def test_alphabet_rejects_foreign_letters():
    with pytest.raises(ValueError):
        oracles.Alphabet(["a", "b"], 3)
    with pytest.raises(ValueError):
        oracles.Alphabet(["s3"], 3)


def test_garside_words():
    assert workloads.braid_tokens(0, 3) == ["s1", "s2", "s1"]
    assert workloads.braid_tokens(1, 3) == ["s2", "s3", "s2"]
    assert len(workloads.braid_tokens(0, 6)) == 15


def _word_problem():
    rv = pytest.importorskip("reversal")
    pres = {key: p for key, (p, _) in workloads.build_presentations(rv, "word-problem").items()}
    return rv, workloads.WordProblem(rv, pres, seed=1)


def _outcome(equivalent: bool, distance=None):
    return SimpleNamespace(decided=True, is_equivalent=equivalent, distance=distance,
                           status=SimpleNamespace(value="x"))


def test_word_problem_check_catches_wrong_answers():
    rv, work = _word_problem()
    p = work.pres["b5"]
    u, v = p.word("s1 s2"), p.word("s2 s1")
    with pytest.raises(workloads.Wrong):  # the deciders disagree
        work.check("b5", u, v, None, (_outcome(False), True))
    with pytest.raises(workloads.Wrong):  # differs under Burau and the permutation
        work.check("b5", u, v, None, (_outcome(True, 1), True))
    with pytest.raises(workloads.Wrong):  # distance above the rewrite count
        work.check("b5", p.word("s1 s2 s1"), p.word("s2 s1 s2"), 1, (_outcome(True, 2), True))
    with pytest.raises(workloads.Inconclusive):
        work.check("b5", u, v, None, (_outcome(False), None))
    work.check("b5", u, v, None, (_outcome(False), False))


def test_deep_lcm_check_catches_wrong_multiples():
    rv = pytest.importorskip("reversal")
    pres = {key: p for key, (p, _) in workloads.build_presentations(rv, "deep-lcm").items()}
    work = workloads.DeepLcm(rv, pres, seed=1)
    p = pres["b5"]
    u, v = p.word("s1"), p.word("s2")
    good = rv.right_lcm(p, u, v), rv.common_right_multiple(p, u, v)
    work.check_lcm("b5", u, v, good, None)
    bad = SimpleNamespace(kind=good[0].kind, multiple=p.word("s1 s1"),
                          complements=(p.word("s1"), p.word("s1")), reason=None)
    with pytest.raises(workloads.Wrong):
        work.check_lcm("b5", u, v, (bad, good[1]), None)
    with pytest.raises(workloads.Wrong):
        work.check_lcm("b5", u, v, good, 4)  # s1 s2 s1 is not Δ of 4 strands
    with pytest.raises(workloads.Inconclusive):
        work.check_cap(None)
    with pytest.raises(workloads.Wrong):
        work.check_cap(False)
