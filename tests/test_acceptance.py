"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time limit is asserted in the test body.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import reversal as rv
from conftest import catalog_presentations, rand_word
from reversal.cancellativity import CancelStatus, MultipleKind
from reversal.completeness import DiamondStatus, Verdict
from reversal.congruence import EquivStatus


def _report(n: int, text: str) -> None:
    print(f"ACCEPTANCE {n}: {text}: PASS")


def test_c01_braid_grid_reproduction(braid4):
    t0 = time.monotonic()
    out = rv.reverse_enumerate(braid4, braid4.word("s1"), braid4.word("s2 s3 s2"))
    assert len(out.grids) == 1
    g = out.grids[0]
    assert g.cell_count == 8
    assert g.target == (braid4.word("s1 s2 s3"), braid4.word("s2 s1 s3 s2 s1"))
    assert time.monotonic() - t0 < 1.0
    _report(1, "braid grid: one grid, 8 cells, exact target")


def test_c02_colored_grid_family(colored42):
    t0 = time.monotonic()
    p = colored42
    for c, d in itertools.product("ab", repeat=2):
        out = rv.reverse_enumerate(p, p.word("s1.a"), p.word(f"s2.b s3.{c} s2.{d}"))
        got = sorted(g.target for g in out.grids)
        expect = sorted(
            (
                p.word(f"s1.{f} s2.{e} s3.a"),
                p.word(f"s2.{e} s1.b s3.{f} s2.{c} s1.{d}"),
            )
            for e, f in itertools.product("ab", repeat=2)
        )
        assert len(out.grids) == 4 and got == expect
    for b, c, d in itertools.product("ab", repeat=3):
        out = rv.reverse_enumerate(p, p.word("s1.a"), p.word(f"s3.{d} s2.{c} s3.{b}"))
        got = sorted(g.target for g in out.grids)
        expect = sorted(
            (
                p.word(f"s1.{f} s2.{e} s3.a"),
                p.word(f"s3.{d} s2.{f} s1.{c} s3.{e} s2.{b}"),
            )
            for e, f in itertools.product("ab", repeat=2)
        )
        assert got == expect
    assert time.monotonic() - t0 < 1.0
    _report(2, "colored grid families match the two-parameter forms")


def test_c03_completeness_verdicts():
    for p in (
        rv.braid(3),
        rv.braid(4),
        rv.colored_braid(3, ["a", "b"]),
        rv.malcev(),
    ):
        assert rv.check_completeness(p).verdict is Verdict.COMPLETE

    t0 = time.monotonic()
    big = rv.colored_braid(4, ["a", "b"])
    assert rv.check_completeness(big).verdict is Verdict.COMPLETE
    assert time.monotonic() - t0 < 300.0

    pr = rv.restricted_colored(4, ["a", "b"])
    rep = rv.check_completeness(pr)
    assert rep.verdict is Verdict.INCOMPLETE
    # Expected witness: generator s1.a against the relation whose colors
    # collapse to (b, b, b) under a two-element color set.
    want = frozenset((pr.word("s2.b s3.b s2.b"), pr.word("s3.b s2.b s3.b")))
    found = [
        r
        for r in rep.pairs
        if r.status is DiamondStatus.COUNTEREXAMPLE
        and r.generator == pr.letter("s1.a")
        and r.relation.as_pair() == want
    ]
    assert found
    _report(3, "complete for the five catalog presentations, incomplete "
               "for the restricted variant with the expected witness")


def test_c04_cancellativity():
    big = rv.colored_braid(4, ["a", "b"])
    assert rv.check_left_cancellative(big).status is CancelStatus.CANCELLATIVE
    assert rv.check_right_cancellative(big).status is CancelStatus.CANCELLATIVE
    assert rv.check_left_cancellative(rv.malcev()).status is CancelStatus.CANCELLATIVE
    pr = rv.restricted_colored(4, ["a", "b"])
    for verdict in (rv.check_left_cancellative(pr), rv.check_right_cancellative(pr)):
        assert verdict.status is CancelStatus.NOT_BY_THIS_CRITERION
    _report(4, "cancellativity verdicts, with no negative claims")


def test_c05_incompleteness_witness_pair():
    t0 = time.monotonic()
    pr = rv.restricted_colored(4, ["a", "b"])
    u = pr.word("s2.b s3.b s2.b s1.a s2.b s3.a")
    v = pr.word("s1.a s3.b s2.a s1.b s3.b s2.b")
    oracle = rv.are_equivalent(pr, u, v)
    assert oracle.status is EquivStatus.EQUIVALENT
    search = rv.reverse_targets(pr, u, v)
    assert search.complete
    assert ((), ()) not in search.targets
    assert rv.decide_equiv_by_reversing(pr, u, v) is False
    assert time.monotonic() - t0 < 10.0
    _report(5, "equivalent pair that reversing provably cannot check")


def test_c06_defect():
    t0 = time.monotonic()
    res = rv.defect(rv.colored_braid(4, ["a", "b"]))
    assert res.value == 5  # tolerance 0 on the pinned value
    assert res.witness is not None
    assert time.monotonic() - t0 < 600.0
    _report(6, "defect of the colored braid presentation is exactly 5")


def test_c07_oracle_reversing_agreement(braid3):
    violations = 0
    words = [
        w
        for length in range(6)
        for w in itertools.product(range(len(braid3.letters)), repeat=length)
    ]
    for u in words:
        for v in words:
            eq = rv.are_equivalent(braid3, u, v).status is EquivStatus.EQUIVALENT
            byrev = rv.decide_equiv_by_reversing(braid3, u, v)
            if byrev is None or eq != byrev:
                violations += 1
    assert violations == 0

    p = rv.colored_braid(3, ["a", "b"])
    rng = random.Random(20250810)
    pool = [
        w
        for length in range(7)
        for w in itertools.product(range(len(p.letters)), repeat=length)
    ]
    for _ in range(500):
        u, v = rng.choice(pool), rng.choice(pool)
        eq = rv.are_equivalent(p, u, v).status is EquivStatus.EQUIVALENT
        byrev = rv.decide_equiv_by_reversing(p, u, v)
        if byrev is None or eq != byrev:
            violations += 1
    assert violations == 0
    _report(7, "oracle and reversing agree on every checked pair")


def test_c08_grid_algebra_properties():
    budget = rv.Budget(max_cells=50_000, max_grids=50_000)
    for name, p in catalog_presentations().items():
        rng = random.Random(1009)
        violations = 0
        for _ in range(1000):
            u = rand_word(rng, p, 4)
            v1 = rand_word(rng, p, 4)
            v2 = rand_word(rng, p, 4)
            v = v1 + v2
            out = rv.reverse_enumerate(p, u, v, budget)
            assert out.completed, name
            for g in out.grids[:6]:
                if not rv.check_grid(p, g).ok:
                    violations += 1
                uv1 = u + g.target[1]
                vu1 = v + g.target[0]
                if p.word_weight(uv1) <= 8:
                    if not rv.are_equivalent(p, uv1, vu1, budget).is_equivalent:
                        violations += 1
            whole = Counter(g.target for g in out.grids)
            chained: Counter = Counter()
            for g1 in rv.reverse_enumerate(p, u, v1, budget).grids:
                for g2 in rv.reverse_enumerate(p, g1.target[0], v2, budget).grids:
                    chained[(g2.target[0], g1.target[1] + g2.target[1])] += 1
            if whole != chained:
                violations += 1
            if out.grids:
                g = out.grids[0]
                g1, g2 = rv.split_h(g, len(v1))
                if rv.compose_h(g1, g2) != g:
                    violations += 1
        assert violations == 0, name
    _report(8, "grid soundness and decomposition, 1000 instances per "
               "catalog presentation, zero violations")


def test_c09_lcm(braid3, braid4):
    res = rv.right_lcm(braid4, braid4.word("s1"), braid4.word("s2"))
    assert res.kind is MultipleKind.LCM and res.multiple == braid4.word("s1 s2 s1")
    res = rv.right_lcm(braid4, braid4.word("s1"), braid4.word("s3"))
    assert res.kind is MultipleKind.LCM and res.multiple == braid4.word("s1 s3")

    def left_divides(p, d, z):
        cls = rv.equivalence_class(p, z)
        assert cls.complete
        return any(w[: len(d)] == d for w in cls.words)

    pool = [
        w
        for length in range(7)
        for w in itertools.product(range(len(braid3.letters)), repeat=length)
    ]
    pairs = [
        (braid3.word("s1"), braid3.word("s2")),
        (braid3.word("s1 s2"), braid3.word("s2 s1")),
        (braid3.word("s1 s1"), braid3.word("s2")),
    ]
    for u, v in pairs:
        lcm = rv.right_lcm(braid3, u, v).multiple
        for z in pool:
            if left_divides(braid3, u, z) and left_divides(braid3, v, z):
                assert left_divides(braid3, lcm, z)

    p = rv.colored_braid(4, ["a", "b"])
    res = rv.common_right_multiple(p, p.word("s1.a"), p.word("s1.b"))
    assert res.kind is MultipleKind.NO_COMMON_MULTIPLE
    assert res.stuck  # certified by a completed enumeration with witnesses
    _report(9, "right lcms with brute-force minimality; certified absence "
               "of common multiples")


def test_c10_cancellation_spot_check():
    for p in (rv.colored_braid(3, ["a", "b"]), rv.malcev()):
        rng = random.Random(2027)
        triples = 0
        while triples < 200:
            s = rng.randrange(len(p.letters))
            u = rand_word(rng, p, 4)
            cls = rv.equivalence_class(p, (s,) + u)
            assert cls.complete
            # All v with s·v ≡ s·u arise as members starting with s.
            for w in sorted(cls.words):
                if w[:1] == (s,):
                    v = w[1:]
                    assert p.word_weight(v) == p.word_weight(u)
                    assert rv.are_equivalent(p, u, v).is_equivalent
                    triples += 1
                    if triples >= 200:
                        break
    _report(10, "left cancellation holds on 200 sampled triples per monoid")
