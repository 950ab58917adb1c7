"""Carried diamond reports, built on read.

Within `check_completeness`, a pair whose orbit representative was
recorded gets reports that hold their status at once; the first read of
the grids, matching or witness of either report carries both sides of
the pair, for both reports.  These tests hold such reports to the
reports of standalone `check_diamond`, whatever reads them first
(equality, hashing, `repr`, pickles, copies, `dataclasses`, JSON or
several threads at once), check their counterexamples against a naive
congruence closure, and check that a verdict carries no grid and that a
cached report stays small.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import json
import pickle
import sys
import threading
import tracemalloc

import pytest
from hypothesis import assume, given, settings

import reversal as rv
from conftest import direct_pairs, is_carried
from strategies import symmetric_presentations, with_mirror
from reversal import completeness
from reversal.completeness import DiamondReport, DiamondStatus, Verdict, diamond_to_json

SPECS = {
    "cb4abc": lambda: rv.colored_braid(4, ["a", "b", "c"]),
    "rc4abc": lambda: rv.restricted_colored(4, ["a", "b", "c"]),
    "rc5abc": lambda: rv.restricted_colored(5, ["a", "b", "c"]),
    "b7": lambda: rv.braid(7),
}


def fresh_pairs(p, after=None) -> tuple:
    """The reports of a new completeness run, none of them read yet; with
    `after`, p's mirror, a run that carries every pair from `after`'s."""
    rv.check_completeness.cache_clear()
    if after is not None:
        rv.check_completeness(after)
    pairs = rv.check_completeness(p).pairs
    if after is None:
        assert any(is_carried(rep) for rep in pairs)
    else:
        assert all(is_carried(rep) for rep in pairs)
    return pairs


def as_eager(rep: DiamondReport) -> DiamondReport:
    return DiamondReport(*(getattr(rep, f.name) for f in dataclasses.fields(rep)))


READS = {
    "eq": lambda p, rep: rep,
    "hash": lambda p, rep: hash(rep),
    "repr": lambda p, rep: repr(rep),
    "unpickled": lambda p, rep: pickle.loads(pickle.dumps(rep)),
    "copy": lambda p, rep: copy.copy(rep),
    "deepcopy": lambda p, rep: copy.deepcopy(rep),
    "replace": lambda p, rep: dataclasses.replace(rep),
    "asdict": lambda p, rep: dataclasses.asdict(rep),
    "json": lambda p, rep: json.dumps(diamond_to_json(p, rep), sort_keys=True),
}


def assert_read_like_standalone(p, status=None, after=None) -> None:
    """Up to 24 carried reports (of `status`, if given), spread over the
    run (after a run over `after`, if given), each against its standalone
    twin."""
    pairs = fresh_pairs(p, after)
    carried = [
        i for i, rep in enumerate(pairs)
        if is_carried(rep) and status in (None, rep.status)
    ]
    assert carried
    sample = carried[:: max(1, len(carried) // 24)][:24]
    direct = {}
    for i in sample:
        rep = pairs[i]
        direct[i] = rv.check_diamond(p, rep.generator, rep.relation)[i % 2]
        assert direct[i].direction == rep.direction
    for read_name, read in READS.items():
        pairs = fresh_pairs(p, after)
        got = [read(p, pairs[i]) for i in sample]
        assert got == [read(p, direct[i]) for i in sample], read_name
        if read_name in ("copy", "deepcopy", "replace", "unpickled"):
            assert not any(is_carried(rep) for rep in got)
        for i in sample:  # a witness is its report's own source grid
            rep = pairs[i]
            assert rep.witness is None or any(g is rep.witness for g in rep.src_grids)
    # A report pickles its fields in field order, read or not: a fresh
    # carried report gives the bytes of an eager report with its values.
    # (The carried grids of a side share one `source` tuple, so the bytes
    # may differ from those of the standalone report, whose grids each
    # have their own; target words are each grid's own in both.)
    pairs = fresh_pairs(p, after)
    unread = [pickle.dumps(pairs[i]) for i in sample]
    pairs = fresh_pairs(p, after)
    assert unread == [pickle.dumps(as_eager(pairs[i])) for i in sample]


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("name", ["cb4abc", "rc5abc", "b7"])
def test_carried_reports_read_like_standalone_ones(name, mirrored):
    p = SPECS[name]()
    assert_read_like_standalone(p.mirrored if mirrored else p)


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("name", ["rc4abc", "rc5abc"])
def test_carried_counterexamples_read_like_standalone_ones(name, mirrored):
    p = SPECS[name]()
    assert_read_like_standalone(p.mirrored if mirrored else p, DiamondStatus.COUNTEREXAMPLE)


@pytest.mark.parametrize("mirror_first", [False, True])
@pytest.mark.parametrize("name", ["cb4abc", "rc5abc", "b7"])
def test_mirror_carried_reports_read_like_standalone_ones(name, mirror_first):
    # The second run carries every pair from the first, through the
    # identity letter map between a presentation and its mirror.
    p = SPECS[name]()
    first, second = (p.mirrored, p) if mirror_first else (p, p.mirrored)
    assert_read_like_standalone(second, after=first)
    if name == "rc5abc":
        assert_read_like_standalone(second, DiamondStatus.COUNTEREXAMPLE, after=first)


def naive_class(relations, w) -> frozenset:
    """The words reached from w by replacing an occurrence of one side of
    a relation by the other, again and again: w's congruence class, finite
    for a length-keeping presentation."""
    seen, todo = {w}, [w]
    while todo:
        x = todo.pop()
        for lhs, rhs in relations:
            for a, b in ((lhs, rhs), (rhs, lhs)):
                for i in range(len(x) - len(a) + 1):
                    if x[i : i + len(a)] == a:
                        y = x[:i] + b + x[i + len(a) :]
                        if y not in seen:
                            seen.add(y)
                            todo.append(y)
    return frozenset(seen)


def assert_hold_by_a_naive_closure(q, bad, b=rv.DEFAULT_BUDGET) -> None:
    """Each counterexample of `bad`, over q, holds: the witness from (s, w)
    to (u1, v1) has s·v1 ≡ w·u1, and no grid from the other side of the
    relation has targets congruent to u1 and v1."""
    relations = [(rel.lhs, rel.rhs) for rel in q.relations]
    classes: dict = {}

    def congruent(x, y) -> bool:
        if x not in classes:
            classes.update(dict.fromkeys(naive_class(relations, x), x))
        return classes.get(y) == classes[x]

    for rep in bad:
        backward = rep.direction == completeness.RHS_TO_LHS
        sides = (rep.relation.lhs, rep.relation.rhs)
        (s, w), (u1, v1) = rep.witness.source, rep.witness.target
        assert s == (rep.generator,) and w == sides[backward]
        assert congruent(s + v1, w + u1)
        assert rep.dst_grids == rv.reverse_enumerate(q, s, sides[not backward], b).grids
        assert not any(
            congruent(g.target[0], u1) and congruent(g.target[1], v1) for g in rep.dst_grids
        )


@pytest.mark.parametrize("mirrored", [False, True])
def test_counterexamples_hold_by_a_naive_closure(mirrored):
    # Direct and orbit-carried counterexamples of restricted_colored(4,
    # {a,b,c}), and mirror-carried ones of its mirror after it.
    p = SPECS["rc4abc"]()
    q = p.mirrored if mirrored else p
    pairs = fresh_pairs(q, after=p if mirrored else None)
    bad = [rep for rep in pairs if rep.status is DiamondStatus.COUNTEREXAMPLE]
    paths = {is_carried(rep) for rep in bad}
    assert paths == ({True} if mirrored else {False, True})
    assert_hold_by_a_naive_closure(q, bad)


def test_carried_counterexamples_hold_by_a_naive_closure_on_random_presentations():
    # Incomplete presentations closed under a letter permutation and under
    # reversing their relations: the run over p carries counterexamples
    # along its orbits, the run over its mirror after it carries them from
    # p's.  Each carried witness, built on read, is one of its report's
    # source grids, holds by a naive closure and is the standalone one.
    seen = {"orbit": 0, "mirror": 0}
    b = rv.Budget(max_class_size=2_000, max_cells=200, max_grids=200)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(symmetric_presentations().map(with_mirror))
    def check(p):
        rv.check_completeness.cache_clear()
        assume(rv.check_completeness(p, b).verdict is Verdict.INCOMPLETE)
        for q, path in ((p, "orbit"), (p.mirrored, "mirror")):
            bad = [
                rep for rep in rv.check_completeness(q, b).pairs
                if is_carried(rep) and rep.status is DiamondStatus.COUNTEREXAMPLE
            ]
            for rep in bad:
                assert any(g is rep.witness for g in rep.src_grids)
                k = rep.direction == completeness.RHS_TO_LHS
                assert rep.witness == rv.check_diamond(q, rep.generator, rep.relation, b)[k].witness
            assert_hold_by_a_naive_closure(q, bad, b)
            seen[path] += len(bad)

    check()
    rv.check_completeness.cache_clear()
    assert seen["orbit"] and seen["mirror"], seen


def test_without_a_self_mirror_run_the_mirror_is_checked_directly(monkeypatch):
    enumerated = []
    enumerate_grids = completeness.reverse_enumerate

    def counted(p, *args):
        enumerated.append(p)
        return enumerate_grids(p, *args)

    monkeypatch.setattr(completeness, "reverse_enumerate", counted)

    def right_enumerations(p, left_first: bool, clear_between: bool = False) -> int:
        rv.check_completeness.cache_clear()
        if left_first:
            rv.check_left_cancellative(p)
        if clear_between:
            rv.check_completeness.cache_clear()
        enumerated.clear()
        rv.check_right_cancellative(p)
        assert set(enumerated) <= {p.mirrored}
        return len(enumerated)

    # Malcev's presentation is not its own mirror under the identity.
    malcev = rv.malcev()
    alone = right_enumerations(malcev, False)
    assert alone > 0 and right_enumerations(malcev, True) == alone
    # The first run after the cache is cleared is checked directly.
    p = SPECS["cb4abc"]()
    alone = right_enumerations(p, False)
    assert alone > 0 and right_enumerations(p, True, clear_between=True) == alone
    assert right_enumerations(p, True) == 0


def test_a_run_after_a_carried_mirror_run_carries_from_its_own_orbits():
    # p, then its mirror, whose run carries every pair from p's and so
    # records none, then p again once its entry is evicted: the third run
    # finds an empty mirror record and carries from its own orbits, as the
    # first run did.
    p = SPECS["cb4abc"]()
    rv.check_completeness.cache_clear()
    try:
        first = rv.check_completeness(p)
        assert all(is_carried(rep) for rep in rv.check_completeness(p.mirrored).pairs)
        with completeness._RUNS.lock:
            del completeness._RUNS.entries[p, rv.DEFAULT_BUDGET]
        third = rv.check_completeness(p)
    finally:
        rv.check_completeness.cache_clear()
    assert third is not first
    carried = [is_carried(rep) for rep in third.pairs]
    assert (sum(carried), len(carried)) == (1032, 1134)
    assert carried == [is_carried(rep) for rep in first.pairs]
    assert third == first


def test_a_run_carries_with_one_carrier():
    # Every carried report of a run, left or right, points at the run's
    # one carrier: the own orbits' for the left run, the mirror's for the
    # right run after it.
    p = SPECS["cb4abc"]()
    rv.check_completeness.cache_clear()
    try:
        carriers = []
        for q in (p, p.mirrored):
            carried = [rep for rep in rv.check_completeness(q).pairs if is_carried(rep)]
            carrier = carried[0]._carried
            assert type(carrier) is completeness._Carrier
            assert all(rep._carried is carrier for rep in carried)
            carriers.append(carrier)
    finally:
        rv.check_completeness.cache_clear()
    left, right = carriers
    assert left.table is p.orbits[1] and left.maps is p.orbits[0]
    assert (right.maps, right.table) == p.mirrored.from_mirror
    assert right is not left and right.record is left.record  # the left run's


def test_carried_counterexamples_have_their_witness():
    p = rv.restricted_colored(4, ["a", "b", "c"])
    # The pairs whose representative is another pair.
    carried = {pair for pair, (rep, _) in p.orbits[1].items() if rep != pair}
    report = rv.check_completeness(p)
    assert report.verdict is Verdict.INCOMPLETE
    direct = direct_pairs(p)
    assert list(report.pairs) == direct
    seen = 0
    for rep, want in zip(report.pairs, direct):
        if (rep.generator, rep.relation.index) in carried:
            if rep.status is DiamondStatus.COUNTEREXAMPLE:
                assert rep.witness is not None and rep.witness == want.witness
                seen += 1
    assert seen > 0


def test_threads_reading_fresh_reports_get_equal_grids():
    p = SPECS["cb4abc"]()
    fields = ("src_grids", "dst_grids", "matching")
    alone = [tuple(getattr(rep, f) for f in fields) for rep in fresh_pairs(p)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            pairs = fresh_pairs(p)
            barrier = threading.Barrier(4)
            results: list = [None] * 4

            def read(k: int) -> None:
                # Each thread reads the fields in another order.
                order = fields[k % 3 :] + fields[: k % 3]
                barrier.wait()
                read = [{f: getattr(rep, f) for f in order} for rep in pairs]
                results[k] = [tuple(r[f] for f in fields) for r in read]

            threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [alone] * 4
            # Each side is carried once: a pair's two reports share its grids.
            for fwd, bwd in zip(pairs[::2], pairs[1::2]):
                assert fwd.src_grids is bwd.dst_grids and fwd.dst_grids is bwd.src_grids
    finally:
        sys.setswitchinterval(interval)


def test_threads_share_the_run_cache():
    # 40 budgets, none binding, against 32 entries: runs read their
    # mirror's entry while other threads add and drop entries.
    p = rv.colored_braid(3, ["a", "b"])
    want = {side: direct_pairs(side) for side in (p, p.mirrored)}
    budgets = [rv.Budget(max_class_size=n) for n in range(1000, 1040)]
    rv.check_completeness.cache_clear()
    results: list = [None] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        barrier = threading.Barrier(4)

        def run(k: int) -> None:
            barrier.wait()
            results[k] = [
                (side, rv.check_completeness(side, b))
                for i, b in enumerate(budgets)
                for side in ((p, p.mirrored) if (i + k) % 2 else (p.mirrored, p))
            ]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    info = rv.check_completeness.cache_info()
    assert info.hits + info.misses == 4 * 2 * len(budgets)  # no count lost
    assert info.currsize == 32
    for done in results:
        assert len(done) == 2 * len(budgets)
        assert all(list(report.pairs) == want[side] for side, report in done)
    rv.check_completeness.cache_clear()


def test_threads_compiling_carry_data_get_the_serial_reports():
    # The tile tables, orbit tables and mirror tables are compiled data of
    # the presentations, built by whichever run reads them first.
    # Here 4 threads start together on fresh presentations, two with p
    # first and two with its mirror first, and read every report.
    def runs(p) -> list:
        return [rv.check_completeness(side) for side in (p, p.mirrored)]

    rv.check_completeness.cache_clear()
    serial = runs(rv.colored_braid(4, ["a", "b"]))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            rv.check_completeness.cache_clear()
            p = rv.colored_braid(4, ["a", "b"])
            p.mirrored
            assert not {"tile_table", "from_mirror"} & set(vars(p) | vars(p.mirrored))
            barrier = threading.Barrier(4)
            results: list = [None] * 4

            def run(k: int) -> None:
                order = (p, p.mirrored) if k % 2 else (p.mirrored, p)
                barrier.wait()
                reports = {side: rv.check_completeness(side) for side in order}
                results[k] = [reports[side] == want for side, want in zip((p, p.mirrored), serial)]

            threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert results == [[True, True]] * 4
    finally:
        sys.setswitchinterval(interval)
        rv.check_completeness.cache_clear()


def counted_carries(monkeypatch) -> list:
    """The sources of the `carry` calls that `completeness` makes from now on."""
    calls = []
    carry = completeness.carry

    def counted(p, sigma, images, grids, source):
        calls.append(source)
        return carry(p, sigma, images, grids, source)

    monkeypatch.setattr(completeness, "carry", counted)
    return calls


def test_verdicts_carry_no_grids(monkeypatch):
    calls = counted_carries(monkeypatch)
    p = SPECS["cb4abc"]()
    rv.check_completeness.cache_clear()
    assert rv.check_left_cancellative(p).status.value == "cancellative"
    assert calls == []
    assert rv.check_right_cancellative(p).status.value == "cancellative"  # carried
    assert calls == []
    # Nor does the JSON of a complete run: no report has a witness.
    for q in (p, p.mirrored):
        completeness.completeness_to_json(q, rv.check_completeness(q))
    assert calls == []
    # The first read carries the pair's two sides, one call each, for both
    # of its reports; no later read carries anything.
    pairs = rv.check_completeness(p).pairs
    i = next(i for i, rep in enumerate(pairs) if is_carried(rep))
    fwd, bwd = pairs[i : i + 2]
    assert (fwd.direction, bwd.direction) == (completeness.LHS_TO_RHS, completeness.RHS_TO_LHS)
    carrier = fwd._carried
    fwd.matching
    s, rel = (fwd.generator,), fwd.relation
    assert calls == [(s, rel.lhs), (s, rel.rhs)]
    assert list(carrier.built) == [(fwd.generator, rel.index)]  # kept for bwd
    for rep in (bwd, fwd):
        rep.src_grids, rep.dst_grids, rep.matching, rep.witness
    assert len(calls) == 2
    assert fwd.src_grids is bwd.dst_grids and fwd.dst_grids is bwd.src_grids
    assert not carrier.built and not any(map(is_carried, (fwd, bwd)))


@pytest.mark.parametrize("name", ["rc4abc", "rc5abc"])
def test_incomplete_verdicts_carry_no_grids(monkeypatch, name):
    # A verdict reads statuses only: a carried counterexample's witness is
    # built when it is read, with its pair's two sides.
    calls = counted_carries(monkeypatch)
    p = SPECS[name]()
    rv.check_completeness.cache_clear()
    assert rv.check_left_cancellative(p).status.value == "not-by-this-criterion"
    # The right verdict carries every pair from the left run.
    assert rv.check_right_cancellative(p).status.value == "not-by-this-criterion"
    assert calls == []
    for q in (p, p.mirrored):
        pairs = rv.check_completeness(q).pairs
        bad = [
            rep for rep in pairs
            if is_carried(rep) and rep.status is DiamondStatus.COUNTEREXAMPLE
        ]
        assert bad and all(rep.exhausted for rep in bad)
        calls.clear()
        witness = bad[0].witness
        assert len(calls) == 2 and any(g is witness for g in bad[0].src_grids)


def compile_carry_data(p) -> None:
    """Build the compiled data of p and its mirror, which belongs to the
    presentations rather than to a run."""
    for q in (p, p.mirrored):
        q.tile_table, q.rewrite_index, q.orbits, q.oriented_relations, q.from_mirror


def held_by_run(p, after=None) -> tuple:
    """The memory that the cached run over p holds, with `after`'s run
    cached first if given; and its report."""
    compile_carry_data(p)
    rv.check_completeness.cache_clear()
    if after is not None:
        rv.check_completeness(after)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = rv.check_completeness(p)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        rv.check_completeness.cache_clear()
    return held, report


def test_a_cached_report_holds_little_memory():
    # The cached report of colored_braid(4,{a,b,c}) held 1.7 MB when every
    # carried report kept its own grids.
    held, report = held_by_run(SPECS["cb4abc"]())
    assert report.verdict is Verdict.COMPLETE
    assert held < 1_500_000


def test_a_mirror_carried_cached_report_holds_little_memory():
    # Measured at 0.15 MB for the mirror of colored_braid(4,{a,b,c}) when
    # its run carries every pair from the left run, on Python 3.10 and
    # 3.11: the reports are slotted and share a carrier per letter map.
    # 0.31 MB (3.11) and 0.51 MB (3.10) when each carried pair had a
    # carrier of its own and each report an instance dict; 0.62 MB when
    # the run checks its orbit representatives itself.
    p = SPECS["cb4abc"]()
    held, report = held_by_run(p.mirrored, after=p)
    assert report.verdict is Verdict.COMPLETE
    assert all(is_carried(rep) for rep in report.pairs)
    assert held < 320_000


def test_a_mirror_carried_pair_allocates_its_two_reports_only():
    # Counted in gc-tracked objects: a carried pair added 5 when it had a
    # carrier of its own and each of its reports an instance dict, and
    # each of those allocations can trigger a collection that traverses
    # the cached left run.
    p = SPECS["cb4abc"]()
    compile_carry_data(p)
    rv.check_completeness.cache_clear()
    try:
        rv.check_completeness(p)
        gc.collect()
        before = len(gc.get_objects())
        report = rv.check_completeness(p.mirrored)
        gc.collect()
        added = len(gc.get_objects()) - before
    finally:
        rv.check_completeness.cache_clear()
    assert all(is_carried(rep) for rep in report.pairs)
    assert added <= 2.5 * len(report.pairs) / 2


def test_compiled_carry_data_holds_little_memory():
    # colored_braid(4,{a,b,c}) and its mirror with all their compiled data,
    # after a left and a right verdict, held 0.28 MB (tracemalloc, Python
    # 3.11).  restricted_colored(5,{a,b,c}) and its mirror, after both runs
    # and every witness read, held 0.46 MB with plain-int mirror tables and
    # tiles carried by value; 0.60 MB with a tile-rank index and tile maps
    # per symmetry as compiled data, 1.08 MB with tile maps as dicts keyed
    # by tile.
    rv.check_completeness.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        p = SPECS["cb4abc"]()
        assert rv.check_left_cancellative(p).status.value == "cancellative"
        assert rv.check_right_cancellative(p).status.value == "cancellative"
        rv.check_completeness.cache_clear()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert "from_mirror" in vars(p.mirrored)
    assert held < 400_000
