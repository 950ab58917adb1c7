"""The defect from orbit representatives and class keys.

`defect` scans the reports of the pairs that are not carried from an orbit
representative, compares a grid whose targets have complete classes only
with the grids of its class key, and reads the grids of at most one
carried report, the one that gives the witness.  These tests hold its
value and witness to a plain scan of every grid of every report against
every grid on the other side, check that a defect decided under a tight
class budget is the one under the default budget, that the default
budget shares one cache entry however it is passed, that the defect
builds no class map its cached run built, and that threads taking the
defect of one cached run get the serial result and leave the run as it
was, and that threads that both miss one key get the run stored first.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

import reversal as rv
from conftest import catalog_presentations
from reversal import completeness
from reversal.completeness import DefectResult, DefectWitness, DiamondContext, Verdict
from reversal.congruence import INFINITE, class_distances, word_distance
from strategies import artin_presentations, symmetric_presentations


def all_pairs_defect(p, b) -> DefectResult:
    """The defect by distances alone: every source grid of every report
    against every grid on the other side, the first strict maximum and its
    first strict minimum."""
    report = rv.check_completeness(p, b)
    if report.verdict is Verdict.INCONCLUSIVE:
        return DefectResult(None, None)
    if report.verdict is Verdict.INCOMPLETE:
        rep = report.witness
        where = (rep.generator, rep.relation, rep.direction, rep.witness)
        return DefectResult(INFINITE, DefectWitness(*where, None, INFINITE))
    class_map = DiamondContext(p, b).class_map
    best_value, best_witness = 0, None
    for rep in report.pairs:
        for g in rep.src_grids:
            dmin, nearest = INFINITE, None
            for g2 in rep.dst_grids:
                d = [word_distance(x, y, class_map) for x, y in zip(g.target, g2.target)]
                if None in d:
                    return DefectResult(None, None)
                if sum(d) < dmin:
                    dmin, nearest = sum(d), g2
            where = (rep.generator, rep.relation, rep.direction, g)
            if nearest is None:
                return DefectResult(INFINITE, DefectWitness(*where, None, INFINITE))
            if dmin > best_value or best_witness is None:
                best_value, best_witness = dmin, DefectWitness(*where, nearest, dmin)
    return DefectResult(best_value, best_witness)


def assert_defect_is_all_pairs(p, b) -> DefectResult:
    rv.check_completeness.cache_clear()
    got = rv.defect(p, b)  # on reports none of which was read
    want = all_pairs_defect(p, b)
    assert got == want
    # The witness grids are the report's own, so the bytes agree too.
    assert pickle.dumps(got) == pickle.dumps(want)
    if b.max_class_size < rv.DEFAULT_BUDGET.max_class_size and got.value is not None:
        rv.check_completeness.cache_clear()
        loose = dataclasses.replace(b, max_class_size=rv.DEFAULT_BUDGET.max_class_size)
        assert rv.defect(p, loose).value == got.value
    return got


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(symmetric_presentations(), artin_presentations()),
    st.sampled_from([100_000, 3, 2]),
)
def test_defect_equals_the_all_pairs_scan(p, max_class_size):
    b = rv.Budget(max_class_size=max_class_size, max_cells=60, max_grids=60)
    assert_defect_is_all_pairs(p, b)
    assert_defect_is_all_pairs(rv.mirror(p), b)


def test_defect_equals_the_all_pairs_scan_on_the_catalog():
    for name, p in catalog_presentations().items():
        for q in (p, p.mirrored):
            for b in (rv.DEFAULT_BUDGET, rv.Budget(max_class_size=3)):
                assert_defect_is_all_pairs(q, b)


def test_a_defect_decided_under_a_tight_budget_is_the_default_one():
    decided = 0
    for name, p in catalog_presentations().items():
        for q in (p, p.mirrored):
            rv.check_completeness.cache_clear()
            tight = rv.defect(q, rv.Budget(max_class_size=3)).value
            if tight is not None:
                decided += 1
                assert tight == rv.defect(q).value, name
    assert decided >= 6


def test_the_default_budget_shares_one_cache_entry():
    p = rv.colored_braid(3, ["a", "b"])
    rv.check_completeness.cache_clear()
    first = rv.check_completeness(p)
    assert rv.check_completeness(p, rv.DEFAULT_BUDGET) is first
    assert rv.check_completeness(p, b=rv.Budget()) is first
    assert rv.check_completeness.cache_info().currsize == 1
    rv.defect(p)  # passes the budget
    assert rv.check_completeness.cache_info().currsize == 1
    rv.check_completeness.cache_clear()
    assert rv.check_completeness.cache_info().currsize == 0


def test_the_defect_builds_no_class_map_its_run_built(monkeypatch):
    # The defect starts from copies of the cached run's class maps: of the
    # words whose maps the run built, it builds none again.
    built = []
    monkeypatch.setattr(
        completeness, "class_distances", lambda p, w, b: built.append(w) or class_distances(p, w, b)
    )
    for p in (rv.colored_braid(4, ["a", "b"]), rv.colored_braid(3, ["a", "b", "c"])):
        for q in (p, p.mirrored):
            rv.check_completeness.cache_clear()
            assert rv.check_completeness(q).verdict is Verdict.COMPLETE
            by_run = set(built)
            built.clear()
            assert rv.defect(q).value is not None
            assert not by_run & set(built), q
            built.clear()
    rv.check_completeness.cache_clear()


def test_threads_share_one_cached_run():
    # Four threads take the defect and the report of one cached run: each
    # gets the serial results, and the run's class maps and ids stay as
    # they were.
    p = rv.colored_braid(4, ["a", "b", "c"])
    rv.check_completeness.cache_clear()
    report = rv.check_completeness(p)
    run = completeness._RUNS.entries[p, rv.DEFAULT_BUDGET]
    maps, ids, classes = dict(run.class_maps), dict(run.class_ids), run.classes
    want = rv.defect(p)
    assert want.value is not None and want.value > 0
    results: list = [None] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        barrier = threading.Barrier(4)

        def work(k: int) -> None:
            barrier.wait()
            results[k] = (rv.defect(p), rv.check_completeness(p))

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    for got, got_report in results:
        assert got == want and pickle.dumps(got) == pickle.dumps(want)
        assert got_report is report
    assert completeness._RUNS.entries[p, rv.DEFAULT_BUDGET] is run
    assert run.class_maps.keys() == maps.keys()
    assert all(run.class_maps[w] is entry for w, entry in maps.items())
    assert run.class_ids == ids and run.classes == classes
    info = rv.check_completeness.cache_info()
    assert (info.hits, info.misses) == (9, 1)
    rv.check_completeness.cache_clear()


def test_threads_that_miss_one_key_get_the_run_stored_first(monkeypatch):
    # Both threads miss the cache before either run is stored, so each
    # runs the check; the run stored first is kept, and both get its report.
    p = rv.colored_braid(3, ["a", "b"])
    rv.check_completeness.cache_clear()
    barrier, run_check = threading.Barrier(2), completeness._check_completeness

    def both_missed(*args):
        barrier.wait(timeout=60)
        return run_check(*args)

    monkeypatch.setattr(completeness, "_check_completeness", both_missed)
    out: list = [None] * 2

    def work(k: int) -> None:
        out[k] = rv.check_completeness(p)

    threads = [threading.Thread(target=work, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert out[0] is out[1] is completeness._RUNS.entries[p, rv.DEFAULT_BUDGET].report
    assert rv.check_completeness.cache_info().misses == 2
    rv.check_completeness.cache_clear()
