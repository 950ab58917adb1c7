"""Identical results: digests of completeness runs and defects, pinned.

Ten catalog presentations, each with its mirror, run under four budgets in
three orders: p first, the mirror first, and p, the mirror, p's cache entry
evicted, then p again.  Each of the 280 runs records how many of its
reports are carried (not yet filled) before any read, and the sha256 of
`repr((report, defect))` followed by the JSON of `completeness_to_json`
and `defect_to_json`.  A change to how runs check or carry their pairs
must leave every record as `golden/report-digests.json` holds it.

After a change that is meant to alter a result, rewrite the fixture with
`PYTHONPATH=src python tests/test_identical_results.py --write` and review
the diff.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import reversal as rv
from conftest import is_carried
from reversal import completeness
from reversal.completeness import completeness_to_json, defect_to_json

FIXTURE = Path(__file__).parent / "golden" / "report-digests.json"

PRESENTATIONS = {
    "braid(4)": lambda: rv.braid(4),
    "braid(5)": lambda: rv.braid(5),
    "braid(6)": lambda: rv.braid(6),
    "colored_braid(3,{a,b})": lambda: rv.colored_braid(3, ["a", "b"]),
    "colored_braid(3,{a,b,c})": lambda: rv.colored_braid(3, ["a", "b", "c"]),
    "colored_braid(4,{a,b})": lambda: rv.colored_braid(4, ["a", "b"]),
    "restricted_colored(3,{a,b})": lambda: rv.restricted_colored(3, ["a", "b"]),
    "restricted_colored(4,{a,b})": lambda: rv.restricted_colored(4, ["a", "b"]),
    "restricted_colored(4,{a,b,c})": lambda: rv.restricted_colored(4, ["a", "b", "c"]),
    "malcev": rv.malcev,
}

BUDGETS = {
    "default": rv.DEFAULT_BUDGET,
    "max_class_size=3": rv.Budget(max_class_size=3),
    "max_cells=4": rv.Budget(max_cells=4),
    "max_grids=3": rv.Budget(max_grids=3),
}


def evict(q: rv.Presentation, b: rv.Budget) -> None:
    with completeness._RUNS.lock:
        del completeness._RUNS.entries[q, b]


def run_record(q: rv.Presentation, b: rv.Budget) -> list:
    report = rv.check_completeness(q, b)
    carried = sum(map(is_carried, report.pairs))
    result = rv.defect(q, b)
    digest = hashlib.sha256(repr((report, result)).encode())
    for doc in (completeness_to_json(q, report), defect_to_json(q, result)):
        digest.update(json.dumps(doc, sort_keys=True).encode())
    return [carried, digest.hexdigest()]


def sweep() -> dict[str, list]:
    out: dict[str, list] = {}
    for name, build in PRESENTATIONS.items():
        for budget_name, b in BUDGETS.items():
            p = build()
            m = p.mirrored
            orders = {
                "p,mirror": (p, m),
                "mirror,p": (m, p),
                "p,mirror,evict p,p": (p, m, None, p),
            }
            for order, steps in orders.items():
                rv.check_completeness.cache_clear()
                records = []
                for q in steps:
                    if q is None:
                        evict(p, b)
                    else:
                        records.append(run_record(q, b))
                out[f"{name} / {budget_name} / {order}"] = records
    rv.check_completeness.cache_clear()
    return out


def test_reports_and_defects_match_the_pinned_digests() -> None:
    expected = json.loads(FIXTURE.read_text())
    got = sweep()
    assert got.keys() == expected.keys()
    assert [key for key in got if got[key] != expected[key]] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_identical_results.py --write")
    lines = [f" {json.dumps(key)}: {json.dumps(value)}" for key, value in sweep().items()]
    FIXTURE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
