"""The defect from orbit representatives and class keys.

`defect` scans the reports of the pairs that are not carried from an orbit
representative, compares a grid whose targets have complete classes only
with the grids of its class key, and reads the grids of at most one
carried report, the one that gives the witness.  These tests hold its
value and witness to a plain scan of every grid of every report against
every grid on the other side, check that a defect decided under a tight
class budget is the one under the default budget, and that the default
budget shares one cache entry however it is passed.
"""

from __future__ import annotations

import dataclasses
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

import reversal as rv
from conftest import catalog_presentations
from reversal.completeness import DefectResult, DefectWitness, DiamondContext, Verdict
from reversal.congruence import INFINITE, word_distance
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
