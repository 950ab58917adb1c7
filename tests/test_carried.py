"""Carried diamond reports, built on read.

Within `check_completeness`, a pair whose orbit representative was
recorded gets reports that hold their status (and a counterexample's
witness) at once and build their grids and matching the first time
something reads them.  These tests hold such reports to the reports of
standalone `check_diamond`, whatever reads them first (equality, hashing,
`repr`, pickles, copies, `dataclasses`, JSON or several threads at once),
and check that a verdict carries no grid beyond the witnesses and that a
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

import reversal as rv
from conftest import direct_pairs
from reversal.completeness import DiamondReport, DiamondStatus, Verdict, diamond_to_json
from reversal.symmetry import Symmetry

SPECS = {
    "cb4abc": lambda: rv.colored_braid(4, ["a", "b", "c"]),
    "rc4abc": lambda: rv.restricted_colored(4, ["a", "b", "c"]),
    "rc5abc": lambda: rv.restricted_colored(5, ["a", "b", "c"]),
    "b7": lambda: rv.braid(7),
}


def fresh_pairs(p) -> tuple:
    """The reports of a new completeness run, none of them read yet."""
    rv.check_completeness.cache_clear()
    pairs = rv.check_completeness(p).pairs
    assert any("_carried" in vars(rep) for rep in pairs)
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


def assert_read_like_standalone(p, status=None) -> None:
    """Up to 24 carried reports (of `status`, if given), spread over the
    run, each against its standalone twin."""
    pairs = fresh_pairs(p)
    carried = [
        i for i, rep in enumerate(pairs)
        if "_carried" in vars(rep) and status in (None, rep.status)
    ]
    assert carried
    sample = carried[:: max(1, len(carried) // 24)][:24]
    direct = {}
    for i in sample:
        rep = pairs[i]
        direct[i] = rv.check_diamond(p, rep.generator, rep.relation)[i % 2]
        assert direct[i].direction == rep.direction
    for read_name, read in READS.items():
        pairs = fresh_pairs(p)
        got = [read(p, pairs[i]) for i in sample]
        assert got == [read(p, direct[i]) for i in sample], read_name
        if read_name in ("copy", "deepcopy", "replace", "unpickled"):
            assert not any("_carried" in vars(rep) for rep in got)
        for i in sample:  # a witness is its report's own source grid
            rep = pairs[i]
            assert rep.witness is None or any(g is rep.witness for g in rep.src_grids)
    # A report pickles its fields in field order, read or not: a fresh
    # carried report gives the bytes of an eager report with its values.
    # (Carried grids share their target words, so the bytes may differ
    # from those of the standalone report, which does not.)
    pairs = fresh_pairs(p)
    unread = [pickle.dumps(pairs[i]) for i in sample]
    pairs = fresh_pairs(p)
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


def test_carried_counterexamples_have_their_witness():
    p = rv.restricted_colored(4, ["a", "b", "c"])
    carried = p.orbits[1]
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


def test_verdicts_carry_no_grids(monkeypatch):
    calls = []
    carry = Symmetry.grids

    def counted(self, grids, source):
        calls.append(source)
        return carry(self, grids, source)

    monkeypatch.setattr(Symmetry, "grids", counted)
    p = SPECS["cb4abc"]()
    rv.check_completeness.cache_clear()
    assert rv.check_left_cancellative(p).status.value == "cancellative"
    assert calls == []
    carried = [rep for rep in rv.check_completeness(p).pairs if "_carried" in vars(rep)]
    carried[0].src_grids
    assert len(calls) == 1


def test_verdicts_carry_only_the_witnesses(monkeypatch):
    # Each carried counterexample report carries its witness grid alone;
    # before, the verdict of rc5abc carried all 1,056 grids of their pairs.
    calls = []
    carry = Symmetry.grid

    def counted(self, g, source):
        calls.append(source)
        return carry(self, g, source)

    monkeypatch.setattr(Symmetry, "grid", counted)
    p = SPECS["rc5abc"]()
    rv.check_completeness.cache_clear()
    assert rv.check_left_cancellative(p).status.value == "not-by-this-criterion"
    pairs = rv.check_completeness(p).pairs
    bad = [
        rep for rep in pairs
        if "_carried" in vars(rep) and rep.status is DiamondStatus.COUNTEREXAMPLE
    ]
    assert 0 < len(calls) <= len(bad)
    assert all(rep.witness.source is source for rep, source in zip(bad, calls))


def test_a_cached_report_holds_little_memory():
    # The cached report of colored_braid(4,{a,b,c}) held 1.7 MB when every
    # carried report kept its own grids.
    p = SPECS["cb4abc"]()
    p.tile_table, p.rewrite_index, p.orbits  # compiled data belongs to p
    rv.check_completeness.cache_clear()
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
    assert report.verdict is Verdict.COMPLETE
    assert held < 1_500_000
