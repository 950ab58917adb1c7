from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reversal as rv
from conftest import catalog_presentations, rand_word
from strategies import artin_presentations, symmetric_presentations
from reversal import grids
from reversal.cancellativity import MultipleKind
from reversal.catalog import CATALOG, build
from reversal.completeness import DiamondContext, Verdict
from reversal.core import is_right_complemented
from reversal.grids import ReversalStatus, TileKind


def targets_of(p, out):
    return sorted((p.word_str(g.target[0]), p.word_str(g.target[1])) for g in out.grids)


# ---------------------------------------------------------------------------
# Tiles.
# ---------------------------------------------------------------------------


def test_tiles_braid_commutation(braid4):
    s1, s3 = braid4.letter("s1"), braid4.letter("s3")
    ts = rv.tiles(braid4, s1, s3)
    assert len(ts) == 1
    assert ts[0].kind is TileKind.RELATION
    assert ts[0].bottom == (s3,)
    assert ts[0].right == (s1,)


def test_tiles_braid_yb(braid4):
    s1, s2 = braid4.letter("s1"), braid4.letter("s2")
    ts = rv.tiles(braid4, s1, s2)
    assert len(ts) == 1
    assert ts[0].bottom == braid4.word("s2 s1")
    assert ts[0].right == braid4.word("s1 s2")


def test_tiles_cancel(braid4):
    s2 = braid4.letter("s2")
    ts = rv.tiles(braid4, s2, s2)
    assert [t.kind for t in ts] == [TileKind.CANCEL]
    assert ts[0].right == () and ts[0].bottom == ()


def test_tiles_cancel_plus_relation_when_sides_share_head():
    p = rv.parse_presentation("gens: a b c\nrel: a b = a c")
    a = p.letter("a")
    kinds = [t.kind for t in rv.tiles(p, a, a)]
    assert kinds == [TileKind.CANCEL, TileKind.RELATION, TileKind.RELATION]


def test_tiles_colored_free_middle_color(colored42):
    s1a = colored42.letter("s1.a")
    s2b = colored42.letter("s2.b")
    ts = rv.tiles(colored42, s1a, s2b)
    assert len(ts) == 2
    got = sorted(
        (colored42.word_str(t.bottom), colored42.word_str(t.right)) for t in ts
    )
    assert got == [
        ("s2.a s1.b", "s1.a s2.a"),
        ("s2.b s1.b", "s1.b s2.a"),
    ]


def test_tiles_colored_same_position_distinct_colors_stuck(colored42):
    assert rv.tiles(colored42, colored42.letter("s1.a"), colored42.letter("s1.b")) == ()


def test_tiles_epsilon_inputs(braid4):
    s1 = braid4.letter("s1")
    (t,) = rv.tiles(braid4, s1, None)
    assert t.kind is TileKind.PASS_LEFT and t.right == (s1,) and t.bottom == ()
    (t,) = rv.tiles(braid4, None, s1)
    assert t.kind is TileKind.PASS_TOP and t.bottom == (s1,) and t.right == ()
    (t,) = rv.tiles(braid4, None, None)
    assert t.kind is TileKind.EMPTY


# ---------------------------------------------------------------------------
# Enumeration.
# ---------------------------------------------------------------------------


def test_braid_grid_reproduction(braid4):
    out = rv.reverse_enumerate(braid4, braid4.word("s1"), braid4.word("s2 s3 s2"))
    assert out.status is ReversalStatus.COMPLETED
    assert len(out.grids) == 1
    g = out.grids[0]
    assert g.target == (braid4.word("s1 s2 s3"), braid4.word("s2 s1 s3 s2 s1"))
    assert g.cell_count == 8
    kinds = Counter(c.kind for c in g.cells)
    assert kinds[TileKind.RELATION] == 5  # five cells carry relations
    assert kinds[TileKind.CANCEL] == 1
    assert kinds[TileKind.PASS_TOP] == 1
    assert kinds[TileKind.PASS_LEFT] == 1


def test_colored_grid_family_case11(colored42):
    p = colored42
    for c in "ab":
        for d in "ab":
            out = rv.reverse_enumerate(
                p, p.word("s1.a"), p.word(f"s2.b s3.{c} s2.{d}")
            )
            assert out.status is ReversalStatus.COMPLETED
            assert len(out.grids) == 4
            expect = sorted(
                (f"s1.{f} s2.{e} s3.a", f"s2.{e} s1.b s3.{f} s2.{c} s1.{d}")
                for e in "ab"
                for f in "ab"
            )
            assert targets_of(p, out) == expect


def test_colored_grid_family_case12(colored42):
    p = colored42
    for b in "ab":
        for c in "ab":
            for d in "ab":
                out = rv.reverse_enumerate(
                    p, p.word("s1.a"), p.word(f"s3.{d} s2.{c} s3.{b}")
                )
                assert len(out.grids) == 4
                expect = sorted(
                    (f"s1.{f} s2.{e} s3.a", f"s3.{d} s2.{f} s1.{c} s3.{e} s2.{b}")
                    for e in "ab"
                    for f in "ab"
                )
                assert targets_of(p, out) == expect


def test_pass_through_column(braid4):
    u = braid4.word("s1 s2")
    out = rv.reverse_enumerate(braid4, u, ())
    assert len(out.grids) == 1
    assert out.grids[0].target == (u, ())
    out = rv.reverse_enumerate(braid4, (), u)
    assert out.grids[0].target == ((), u)
    out = rv.reverse_enumerate(braid4, (), ())
    assert out.grids[0].target == ((), ())
    assert out.grids[0].cell_count == 0


def test_diagonal_reverses_to_unit():
    for name, p in catalog_presentations().items():
        rng = random.Random(3)
        for _ in range(5):
            u = rand_word(rng, p, 3)
            out = rv.reverse_enumerate(p, u, u)
            assert any(g.target == ((), ()) for g in out.grids), name


def test_stuck_pair_certified(colored42):
    p = colored42
    out = rv.reverse_enumerate(p, p.word("s1.a"), p.word("s1.b"))
    assert out.completed
    assert out.grids == ()
    assert (p.letter("s1.a"), p.letter("s1.b")) in out.stuck


def test_budget_exceeded_reported(braid3):
    tight = rv.Budget(max_cells=3, max_grids=10, max_class_size=10, max_word_weight=12)
    out = rv.reverse_enumerate(
        braid3, braid3.word("s1 s2 s1"), braid3.word("s2 s1 s2"), tight
    )
    assert out.status is ReversalStatus.BUDGET_EXCEEDED
    assert not out.completed


def test_epsilon_relation_rejected():
    p = rv.parse_presentation("gens: a\nrel: a a = 1")
    with pytest.raises(rv.PresentationError, match="ε-relation"):
        rv.reverse_enumerate(p, p.word("a"), p.word("a"))


# ---------------------------------------------------------------------------
# Complemented reversing.
# ---------------------------------------------------------------------------


def test_reverse_complemented_examples(braid4):
    p = braid4
    out = rv.reverse_complemented(p, p.word("s1"), p.word("s2"))
    assert out.grids[0].target == (p.word("s1 s2"), p.word("s2 s1"))
    out = rv.reverse_complemented(p, p.word("s1"), p.word("s3"))
    assert out.grids[0].target == (p.word("s1"), p.word("s3"))
    out = rv.reverse_complemented(p, p.word("s1 s2 s1"), p.word("s2 s1 s2"))
    assert out.grids[0].target == ((), ())


def test_reverse_complemented_requires_complementedness(colored42):
    with pytest.raises(rv.PresentationError, match="complemented"):
        rv.reverse_complemented(colored42, colored42.word("s1.a"), colored42.word("s2.a"))


def test_complemented_uniqueness(braid3, braid4):
    for p in (braid3, braid4, rv.braid(5)):
        rng = random.Random(17)
        for _ in range(40):
            u = rand_word(rng, p, 5)
            v = rand_word(rng, p, 5)
            out = rv.reverse_enumerate(p, u, v)
            assert len(out.grids) <= 1


# ---------------------------------------------------------------------------
# Validation, composition, replay.
# ---------------------------------------------------------------------------


def test_validate_grid_braid(braid4):
    g = rv.reverse_enumerate(braid4, braid4.word("s1"), braid4.word("s2 s3 s2")).grids[0]
    assert rv.check_grid(braid4, g).ok
    (u, v), (u1, v1) = g.source, g.target
    assert rv.are_equivalent(braid4, u + v1, v + u1).is_equivalent


def test_validate_grid_rejects_corruption(braid4):
    from dataclasses import replace

    g = rv.reverse_enumerate(braid4, braid4.word("s1"), braid4.word("s2 s3 s2")).grids[0]
    bad_cells = list(g.cells)
    bad_cells[0] = replace(bad_cells[0], bottom=braid4.word("s2 s2"))
    bad = rv.Grid(g.letters, g.source, g.target, tuple(bad_cells))
    assert not rv.check_grid(braid4, bad).ok

    wrong_target = rv.Grid(g.letters, g.source, (g.target[0], ()), g.cells)
    assert not rv.check_grid(braid4, wrong_target).ok


def test_validate_empty_grid(braid4):
    g = rv.reverse_enumerate(braid4, (), ()).grids[0]
    assert rv.check_grid(braid4, g).ok
    (u, v), (u1, v1) = g.source, g.target
    assert rv.are_equivalent(braid4, u + v1, v + u1).is_equivalent


def test_compose_examples(braid4):
    p = braid4
    g1 = rv.reverse_enumerate(p, p.word("s1"), p.word("s2")).grids[0]
    g2 = rv.reverse_enumerate(p, g1.target[0], p.word("s3")).grids[0]
    composed = rv.compose_h(g1, g2)
    assert composed.source == (p.word("s1"), p.word("s2 s3"))
    direct = rv.reverse_enumerate(p, p.word("s1"), p.word("s2 s3")).grids[0]
    assert composed == direct

    ga = rv.reverse_enumerate(p, p.word("s1 s2"), ()).grids[0]
    gb = rv.reverse_enumerate(p, ga.target[0], p.word("s3")).grids[0]
    assert rv.compose_h(ga, gb).source == (p.word("s1 s2"), p.word("s3"))


def test_compose_rejects_edge_mismatch(braid4):
    p = braid4
    g1 = rv.reverse_enumerate(p, p.word("s1"), p.word("s2")).grids[0]
    g2 = rv.reverse_enumerate(p, p.word("s3"), p.word("s1")).grids[0]
    with pytest.raises(rv.GridError, match="mismatch"):
        rv.compose_h(g1, g2)


def test_split_then_compose_is_identity(braid4):
    g = rv.reverse_enumerate(braid4, braid4.word("s1"), braid4.word("s2 s3 s2")).grids[0]
    for k in (0, 1, 2, 3):
        g1, g2 = rv.split_h(g, k)
        assert rv.compose_h(g1, g2) == g


def _forge_pass_tile(p, g):
    """g with its first pass tile replaced by the pass tile of another
    letter: the trace still replays, to other cells."""
    i = next(i for i, c in enumerate(g.cells) if c.kind is TileKind.PASS_TOP)
    forged = rv.tiles(p, None, (g.cells[i].top + 1) % len(p.letters))[0]
    return dataclasses.replace(g, cells=g.cells[:i] + (forged,) + g.cells[i + 1 :])


def _swap_first_choices(g):
    """g with its first two choice cells swapped: each tile still applies,
    but the replay meets them at the wrong cells."""
    choices = (TileKind.RELATION, TileKind.CANCEL)
    i, j = [i for i, c in enumerate(g.cells) if c.kind in choices][:2]
    cells = list(g.cells)
    cells[i], cells[j] = cells[j], cells[i]
    return dataclasses.replace(g, cells=tuple(cells))


SWAP_ERROR = "edge mismatch: expected cell (0, 1), trace has (0, 2)"
CONTEXT_ERROR = (ValueError, "the context belongs to another presentation or budget")
# name -> (the call, given braid(4), a grid g and two grids g1, g2 that
# compose; what it returns, or the error type and message it raises).
ERROR_PATHS = {
    "check_grid: alphabet mismatch": (
        lambda p, g, g1, g2: rv.check_grid(rv.braid(3), g), "alphabet mismatch"
    ),
    "check_grid: the replay raises": (
        lambda p, g, g1, g2: rv.check_grid(p, dataclasses.replace(g, cells=g.cells[:-1])),
        "trace ended before the grid was filled",
    ),
    "check_grid: a forged pass tile": (
        lambda p, g, g1, g2: rv.check_grid(p, _forge_pass_tile(p, g)),
        "replayed cells differ from the stored trace",
    ),
    "check_grid: swapped choice cells": (
        lambda p, g, g1, g2: rv.check_grid(p, _swap_first_choices(g)), SWAP_ERROR
    ),
    "replay: swapped choice cells": (
        lambda p, g, g1, g2: rv.replay(_swap_first_choices(g)), (rv.GridError, SWAP_ERROR)
    ),
    "compose_h: different alphabets": (
        lambda p, g, g1, g2: rv.compose_h(
            g1, dataclasses.replace(g2, letters=rv.braid(3).letters)
        ),
        (rv.GridError, "grids come from different alphabets"),
    ),
    "compose_h: leftover cells": (
        lambda p, g, g1, g2: rv.compose_h(
            g1, dataclasses.replace(g2, cells=g2.cells + (g1.choice_cells()[0],))
        ),
        (rv.GridError, "grid 2 has cells not used by the composition"),
    ),
    "compose_h: a forged target": (
        lambda p, g, g1, g2: rv.compose_h(
            g1, dataclasses.replace(g2, target=(g2.target[0], g2.target[1] + (0,)))
        ),
        (rv.GridError, "composition produced an unexpected target"),
    ),
    "split_h: k below range": (
        lambda p, g, g1, g2: rv.split_h(g, -1),
        (rv.GridError, "split position -1 out of range"),
    ),
    "split_h: k above range": (
        lambda p, g, g1, g2: rv.split_h(g, len(g.source[1]) + 1),
        (rv.GridError, "split position 4 out of range"),
    ),
    "split_h: an extra choice cell": (
        lambda p, g, g1, g2: rv.split_h(
            dataclasses.replace(g, cells=g.cells + (g.choice_cells()[0],)), 1
        ),
        (rv.GridError, "trace has unused cells"),
    ),
    "check_diamond: another presentation": (
        lambda p, g, g1, g2: rv.check_diamond(
            p, 0, p.relations[0], rv.DEFAULT_BUDGET,
            DiamondContext(rv.braid(4), rv.DEFAULT_BUDGET),
        ),
        CONTEXT_ERROR,
    ),
    "check_diamond: another budget": (
        lambda p, g, g1, g2: rv.check_diamond(
            p, 0, p.relations[0], rv.DEFAULT_BUDGET, DiamondContext(p, rv.Budget(max_cells=5))
        ),
        CONTEXT_ERROR,
    ),
}


@pytest.mark.parametrize("name", sorted(ERROR_PATHS))
def test_error_paths_of_grid_checks_and_diamond_contexts(braid4, name):
    # A failed check returns ok=False with its reason; a misuse raises.
    p = braid4
    g = rv.reverse_enumerate(p, p.word("s1"), p.word("s2 s3 s2")).grids[0]
    g1 = rv.reverse_enumerate(p, p.word("s1"), p.word("s2")).grids[0]
    g2 = rv.reverse_enumerate(p, g1.target[0], p.word("s3")).grids[0]
    call, want = ERROR_PATHS[name]
    if isinstance(want, str):
        assert call(p, g, g1, g2) == grids.GridCheck(False, want)
    else:
        error, message = want
        with pytest.raises(error) as info:
            call(p, g, g1, g2)
        assert type(info.value) is error and str(info.value) == message


def test_render_grid_rejects_a_bad_trace_like_replay(braid4):
    g = rv.reverse_enumerate(braid4, braid4.word("s1"), braid4.word("s2 s3 s2")).grids[0]
    short = dataclasses.replace(g, cells=g.cells[:2])
    long = dataclasses.replace(g, cells=g.cells + (g.choice_cells()[0],))
    for bad, message in ((short, "trace ended"), (long, "unused cells")):
        with pytest.raises(rv.GridError, match=message):
            rv.replay(bad)
        with pytest.raises(rv.GridError, match=message):
            rv.render_grid(bad)
    empty = dataclasses.replace(g, cells=())
    with pytest.raises(rv.GridError, match="trace ended"):
        rv.render_grid(empty)


def test_replay_determinism():
    for name, p in catalog_presentations().items():
        rng = random.Random(23)
        for _ in range(10):
            u = rand_word(rng, p, 3)
            v = rand_word(rng, p, 3)
            for g in rv.reverse_enumerate(p, u, v).grids[:4]:
                assert rv.replay(g) == g, name


# ---------------------------------------------------------------------------
# Properties: soundness, decomposition, weight balance.
# ---------------------------------------------------------------------------


def test_tile_weight_balance():
    for name, p in catalog_presentations().items():
        for s in range(len(p.letters)):
            for t in range(len(p.letters)):
                for tile in rv.tiles(p, s, t):
                    left = p.weights[s] + p.word_weight(tile.bottom)
                    top = p.weights[t] + p.word_weight(tile.right)
                    assert left == top, name


def test_grid_weight_balance():
    for name, p in catalog_presentations().items():
        rng = random.Random(31)
        for _ in range(20):
            u = rand_word(rng, p, 4)
            v = rand_word(rng, p, 4)
            for g in rv.reverse_enumerate(p, u, v).grids[:4]:
                u1, v1 = g.target
                assert p.word_weight(u + v1) == p.word_weight(v + u1), name


def test_reversal_soundness_oracle():
    # Lemma-level soundness: every grid witnesses u·v1 ≡ v·u1.
    for name, p in catalog_presentations().items():
        rng = random.Random(41)
        checked = 0
        for _ in range(60):
            u = rand_word(rng, p, 4)
            v = rand_word(rng, p, 4)
            if p.word_weight(u) + p.word_weight(v) > 8:
                continue
            for g in rv.reverse_enumerate(p, u, v).grids[:4]:
                u1, v1 = g.target
                o = rv.are_equivalent(p, u + v1, v + u1)
                assert o.is_equivalent, name
                checked += 1
        assert checked > 0, name


def test_decomposition_multiset():
    for name, p in catalog_presentations().items():
        rng = random.Random(43)
        for _ in range(25):
            u = rand_word(rng, p, 4)
            v1 = rand_word(rng, p, 2)
            v2 = rand_word(rng, p, 2)
            whole = rv.reverse_enumerate(p, u, v1 + v2)
            assert whole.completed
            left = Counter(g.target for g in whole.grids)
            right: Counter = Counter()
            for g1 in rv.reverse_enumerate(p, u, v1).grids:
                for g2 in rv.reverse_enumerate(p, g1.target[0], v2).grids:
                    right[(g2.target[0], g1.target[1] + g2.target[1])] += 1
            assert left == right, name


# ---------------------------------------------------------------------------
# Rendering and JSON.
# ---------------------------------------------------------------------------


def test_render_empty_grid(braid4):
    g = rv.reverse_enumerate(braid4, (), ()).grids[0]
    assert rv.render_grid(g) == "(ε, ε)"


def test_render_one_tile_grid(braid4):
    g = rv.reverse_enumerate(braid4, braid4.word("s1"), braid4.word("s2")).grids[0]
    art = rv.render_grid(g)
    assert art == rv.render_grid(g)  # deterministic
    lines = art.splitlines()
    assert "s2" in lines[0]  # top edge
    assert any("s1" in line for line in lines[1:-1])  # left/right edges
    assert "s2" in lines[-1] and "s1" in lines[-1]  # bottom edge s2 s1


def test_render_braid_grid_shape(braid4):
    g = rv.reverse_enumerate(braid4, braid4.word("s1"), braid4.word("s2 s3 s2")).grids[0]
    art = rv.render_grid(g)
    top = art.splitlines()[0]
    assert top.count("+") == 4  # three top-level columns
    assert "ε" in art


def test_grid_json_round_trip(colored42):
    p = colored42
    out = rv.reverse_enumerate(p, p.word("s1.a"), p.word("s2.b s3.a s2.b"))
    for g in out.grids:
        doc = rv.grid_to_json(g)
        assert rv.grid_from_json(p, doc) == g
        text = json.dumps(doc, sort_keys=True)
        assert json.dumps(rv.grid_to_json(g), sort_keys=True) == text
    doc = rv.grid_to_json(out.grids[0])
    assert doc["source"][0] == ["s1.a"]
    assert {"left", "top", "kind", "right", "bottom"} <= set(doc["cells"][0])


SPOILED_GRID_DOCUMENTS = {
    "empty": (lambda doc: doc.clear(), rv.GridError),
    "no source": (lambda doc: doc.pop("source"), rv.GridError),
    "no target": (lambda doc: doc.pop("target"), rv.GridError),
    "no cells": (lambda doc: doc.pop("cells"), rv.GridError),
    "cells an int": (lambda doc: doc.update(cells=5), rv.GridError),
    "cells a dict": (lambda doc: doc.update(cells={}), rv.GridError),
    "source a string": (lambda doc: doc.update(source="s1"), rv.GridError),
    "target of one side": (lambda doc: doc.update(target=[["s1"]]), rv.GridError),
    "side a string": (lambda doc: doc["source"].__setitem__(1, "s2"), rv.GridError),
    "cell side a string": (lambda doc: doc["cells"][0].__setitem__("right", "s1"), rv.GridError),
    "cell without left": (lambda doc: doc["cells"][0].pop("left"), rv.GridError),
    "unknown kind": (lambda doc: doc["cells"][0].update(kind="swap"), rv.GridError),
    "cell an int": (lambda doc: doc["cells"].__setitem__(0, 5), rv.GridError),
    # An unknown letter is the presentation's error.
    "unknown letter": (lambda doc: doc["source"].__setitem__(1, ["s9"]), rv.PresentationError),
}


@pytest.mark.parametrize("case", list(SPOILED_GRID_DOCUMENTS))
def test_malformed_grid_documents_raise_grid_error(braid3, case):
    spoil, error = SPOILED_GRID_DOCUMENTS[case]
    g = rv.reverse_enumerate(braid3, braid3.word("s1"), braid3.word("s2")).grids[0]
    doc = rv.grid_to_json(g)
    assert rv.grid_from_json(braid3, doc) == g
    spoil(doc)
    with pytest.raises(error) as caught:
        rv.grid_from_json(braid3, doc)
    assert error is rv.PresentationError or not isinstance(caught.value, rv.PresentationError)


# ---------------------------------------------------------------------------
# Target search.
# ---------------------------------------------------------------------------


def test_reverse_targets_agrees_with_enumeration():
    for name, p in catalog_presentations().items():
        rng = random.Random(53)
        for _ in range(25):
            u = rand_word(rng, p, 4)
            v = rand_word(rng, p, 4)
            out = rv.reverse_enumerate(p, u, v)
            search = rv.reverse_targets(p, u, v)
            assert search.complete, name
            assert search.targets == frozenset(g.target for g in out.grids), name


def test_reverse_targets_names_the_limit_that_cut_it():
    b4 = rv.braid(4)
    search = rv.reverse_targets(b4, b4.word("s1 s2"), b4.word("s3 s2"))
    assert search.complete and search.cut is None
    search = rv.reverse_targets(
        b4, b4.word("s1 s2"), b4.word("s3 s2"), rv.Budget(max_cells=3)
    )
    assert not search.complete and search.cut == "max_cells"
    cb3 = rv.colored_braid(3, ["a", "b", "c"])
    search = rv.reverse_targets(
        cb3, cb3.word("s1.a"), cb3.word("s2.b"), rv.Budget(max_grids=1)
    )
    assert not search.complete and search.cut == "max_grids"
    # Limits are counts: a cap below one target cannot be set.
    with pytest.raises(ValueError, match="max_grids must be an int"):
        rv.Budget(max_grids=0.5)
    # Not homogeneous: the subproblem (a, b a) comes back inside itself.
    p = rv.make_presentation(["a", "b"], [("a b", "b b a")])
    search = rv.reverse_targets(p, p.word("a"), p.word("b a"))
    assert not search.complete and search.cut == "cycle"


def test_reverse_targets_stuck_witnesses(colored42):
    p = colored42
    search = rv.reverse_targets(p, p.word("s1.a"), p.word("s1.b"))
    assert search.complete and not search.targets
    assert (p.letter("s1.a"), p.letter("s1.b")) in search.stuck


def tuple_memo_targets(p, u, v, b=rv.DEFAULT_BUDGET):
    """A plain recursive target search memoised on word tuples, visiting
    tiles and subproblems in the library's order: (targets, complete,
    stuck, explored)."""
    done, active, stuck = {}, set(), set()
    steps, complete = 0, True

    def targets(uu, vv):
        nonlocal steps, complete
        key = (uu, vv)
        if key in done:
            return done[key]
        if key in active:
            complete = False
            return frozenset()
        if not uu or not vv:
            done[key] = frozenset({key})
            return done[key]
        active.add(key)
        options = rv.tiles(p, uu[0], vv[0])
        if not options:
            stuck.add((uu[0], vv[0]))
        acc = set()
        for tile in options:
            steps += 1
            if steps > b.max_cells:
                complete = False
                break
            for a1, c in targets(tile.right, vv[1:]):
                for u1, v1 in targets(uu[1:], tile.bottom + c):
                    acc.add((a1 + u1, v1))
                    if len(acc) > b.max_grids:
                        complete = False
                        break
        active.discard(key)
        done[key] = frozenset(acc)
        return done[key]

    return targets(u, v), complete, frozenset(stuck), steps


def test_reverse_targets_matches_tuple_memo_reference():
    compared = 0
    for p in (rv.braid(4), rv.colored_braid(3, ["a", "b"])):
        rng = random.Random(f"tuple-memo:{p.letters}")
        for _ in range(150):
            u, v = rand_word(rng, p, 6), rand_word(rng, p, 6)
            targets, complete, stuck, explored = tuple_memo_targets(p, u, v)
            search, gets, memo_ran = traced_search(p, u, v, rv.DEFAULT_BUDGET)
            assert search.complete == complete, (u, v)
            # The pass answers on braid(4), the memo search on colored braids.
            assert memo_ran is not p.deterministic
            if complete:
                compared += 1
                assert search.targets == targets, (u, v)
                assert search.stuck == stuck, (u, v)
                if memo_ran:
                    assert search.explored == explored, (u, v)
                else:
                    assert search.explored == gets - len(stuck), (u, v)
    assert compared == 300


def test_deterministic_is_compiled_for_right_complemented_presentations():
    assert rv.braid(4).deterministic
    assert not rv.colored_braid(4, ["a", "b"]).deterministic
    catalog = list(catalog_presentations().values()) + [
        build(name, n, colors)
        for name in CATALOG
        for n in (3, 5)
        for colors in (["a"], ["a", "b", "c"])
    ]
    for p in catalog:
        for q in (p, p.mirrored):
            assert q.deterministic == is_right_complemented(q), q.letters


def single_loop_cases(p, u, v):
    """Budgets around where the generator loop's search on (u, v) ends."""
    explored = grids._target_sets(p, u, v, rv.DEFAULT_BUDGET).explored
    return [
        rv.DEFAULT_BUDGET,
        rv.Budget(max_cells=1),
        rv.Budget(max_cells=max(1, explored // 2)),
        rv.Budget(max_cells=max(1, explored - 1)),
        rv.Budget(max_cells=max(1, explored)),
        rv.Budget(max_grids=1),
    ]


class CountedTable(dict):
    """A reversal table that counts its lookups: one per cell the reversing
    pass places, and one for a stuck cell."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def traced_search(p, u, v, b) -> tuple[grids.TargetSearch, int, bool]:
    """`reverse_targets(p, u, v, b)`, the lookups its reversing pass made
    in p's reversal table, and whether the memo search ran."""
    counted, memo, calls = CountedTable(p.reversal_table), grids._target_sets, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(vars(p), "reversal_table", counted)
        mp.setattr(grids, "_target_sets", lambda *args: calls.append(args) or memo(*args))
        search = rv.reverse_targets(p, u, v, b)
    return search, counted.gets, bool(calls)


ANSWER = ("targets", "complete", "stuck", "cut")


def answer(search: grids.TargetSearch) -> list:
    return [getattr(search, f) for f in ANSWER]


def assert_loops_agree(p, u, v, b) -> tuple[grids.TargetSearch, int]:
    """`reverse_targets` gives the generator loop's answer, and `explored`
    counts the search that answered: the cells the reversing pass placed,
    or the generator loop's steps.  Returns the search and the pass's
    lookups."""
    general = grids._target_sets(p, u, v, b)
    search, gets, memo_ran = traced_search(p, u, v, b)
    assert answer(search) == answer(general), (p.letters, u, v, b)
    if memo_ran:
        assert search == general, (p.letters, u, v, b)
    else:
        assert search.explored == gets - len(search.stuck), (p.letters, u, v, b)
    return search, gets


def test_single_target_loop_equals_the_generator_loop():
    cyclic = rv.make_presentation(["a", "b"], [("a b", "b b a")])
    a, ba = cyclic.word("a"), cyclic.word("b a")
    # The subproblem (a, b a) comes back inside itself: the pass overruns
    # any budget, and the generator loop cuts the cycle.
    assert grids._reverse(cyclic, a, ba, 10_000) is None
    assert assert_loops_agree(cyclic, a, ba, rv.DEFAULT_BUDGET)[0].cut == "cycle"
    cuts, compared, overruns = Counter(), 0, 0
    for p in [rv.braid(n) for n in (3, 4, 5, 6)] + [cyclic]:
        assert p.deterministic
        rng = random.Random(f"single-loop:{p.letters}")
        for _ in range(250):
            u, v = rand_word(rng, p, 10), rand_word(rng, p, 10)
            for b in single_loop_cases(p, u, v):
                search, _ = assert_loops_agree(p, u, v, b)
                cuts[search.cut] += 1
                compared += 1
                # A pass that meets repeated subproblems again may overrun
                # a budget under which the generator loop completes.
                overruns += search.complete and grids._reverse(p, u, v, b.max_cells) is None
    assert compared == 7_500
    assert cuts[None] and cuts["max_cells"] and cuts["cycle"] and overruns == 279


def test_cyclic_searches_bound_the_pass_independently_of_the_budget():
    # Both subproblems come back inside themselves, so the pass never ends.
    # It stops after 8·(|u| + |v| + 1)² cells (128 here), whatever
    # max_cells, and the generator loop cuts the cycle.  Before the bound,
    # the pass ran 10,000 cells at the default budget and 1,000,000 here.
    cyclic = rv.make_presentation(["a", "b"], [("a b", "b b a")])
    affine = rv.make_presentation(  # the affine Artin presentation Ã2
        ["a", "b", "c"], [("a b a", "b a b"), ("b c b", "c b c"), ("c a c", "a c a")]
    )
    for p, u, v in ((cyclic, "a", "b a"), (affine, "a", "b c")):
        u, v = p.word(u), p.word(v)
        assert p.deterministic
        for b in (rv.DEFAULT_BUDGET, rv.Budget(max_cells=1_000_000)):
            search, gets = assert_loops_agree(p, u, v, b)
            assert not search.complete
            assert 0 < gets <= 8 * (len(u) + len(v) + 1) ** 2 + 1


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(artin_presentations(), st.randoms(use_true_random=False))
def test_single_target_loop_equals_the_generator_loop_on_artin_presentations(p, rng):
    assert p.deterministic
    for _ in range(12):
        u, v = rand_word(rng, p, 8), rand_word(rng, p, 8)
        for b in single_loop_cases(p, u, v):
            assert_loops_agree(p, u, v, b)


def garside_pair(p, n):
    """Δ of strands 1..n-1 and Δ of strands 2..n in braid(n)."""
    return [
        p.word([f"s{offset + j}" for i in range(1, n - 1) for j in range(i, 0, -1)])
        for offset in (0, 1)
    ]


def test_a_pass_that_fits_runs_no_memo_search(monkeypatch):
    p = rv.braid(6)
    u, v = garside_pair(p, 6)
    calls = Counter()
    memo = grids._target_sets

    def counted(*args):
        calls["memo"] += 1
        return memo(*args)

    monkeypatch.setattr(grids, "_target_sets", counted)
    lcm = rv.right_lcm(p, u, v)
    assert lcm.kind is MultipleKind.LCM and len(lcm.multiple) == 15
    assert rv.common_right_multiple(p, u, v).multiple == lcm.multiple
    search = rv.reverse_targets(p, u, v)
    assert search.targets == {lcm.complements}
    # Reading, copying, pickling or hashing a result runs no search.
    search.explored, pickle.loads(pickle.dumps(search)), repr(search), hash(search)
    copy.deepcopy(search), dataclasses.replace(search)
    assert calls["memo"] == 0
    assert 0 < search.explored <= rv.DEFAULT_BUDGET.max_cells
    assert vars(search) == {f: getattr(search, f) for f in ANSWER + ("explored",)}


LOW_BUDGETS = st.builds(
    rv.Budget, max_cells=st.integers(1, 12), max_grids=st.integers(1, 3)
)


@pytest.mark.parametrize("loop", ["single", "sets"])
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(LOW_BUDGETS, st.integers(0, 400), st.integers(0, 3), st.data())
def test_raising_the_target_search_budget_never_flips_an_answer(
    loop, low, more_cells, more_grids, data
):
    # "sets" makes every reversing pass overrun, so the generator loop runs
    # on every presentation and both paths see the deterministic ones.
    if loop == "single":
        p = data.draw(artin_presentations())
    else:
        p = data.draw(st.one_of(symmetric_presentations(), artin_presentations()))
    high = rv.Budget(
        max_cells=low.max_cells + more_cells, max_grids=low.max_grids + more_grids
    )
    word = st.lists(st.integers(0, len(p.letters) - 1), max_size=6).map(tuple)
    u, v = data.draw(word), data.draw(word)
    complemented = is_right_complemented(p) and (
        rv.check_completeness(p).verdict is Verdict.COMPLETE
    )
    with pytest.MonkeyPatch.context() as mp:
        if loop == "sets":
            mp.setattr(grids, "_reverse", lambda *args: None)
        searches = [rv.reverse_targets(p, u, v, b) for b in (low, high)]
        answers = [rv.decide_equiv_by_reversing(p, u, v, b) for b in (low, high)]
        lcms = [rv.right_lcm(p, u, v, b) for b in (low, high)] if complemented else []
    if searches[0].complete:
        # A larger budget may let the reversing pass answer where the
        # generator loop did, with its own `explored`, never another answer.
        assert answer(searches[1]) == answer(searches[0])
        if loop == "sets":
            assert searches[1] == searches[0]
    if answers[0] is False:
        assert answers[1] is False
    assert None in answers or answers[0] == answers[1]
    if lcms and lcms[0].kind is not MultipleKind.INCONCLUSIVE:
        assert lcms[1] == lcms[0]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.tuples(st.one_of(artin_presentations(), symmetric_presentations()), LOW_BUDGETS),
        # Some symmetric draws take the memo search seconds to reach the
        # default budget's 10,000 steps; Artin draws take milliseconds.
        st.tuples(artin_presentations(), st.just(rv.DEFAULT_BUDGET)),
    ),
    st.data(),
)
def test_explored_stays_within_max_cells_and_a_result_holds_its_fields(drawn, data):
    # Each search runs as it comes, then with the reversing pass dropped,
    # so deterministic presentations see both paths.
    p, b = drawn
    word = st.lists(st.integers(0, len(p.letters) - 1), max_size=6).map(tuple)
    u, v = data.draw(word), data.draw(word)
    with pytest.MonkeyPatch.context() as mp:
        searches = [rv.reverse_targets(p, u, v, b)]
        mp.setattr(grids, "_reverse", lambda *args: None)
        searches.append(rv.reverse_targets(p, u, v, b))
    for search in searches:
        assert 0 <= search.explored <= b.max_cells, (p.letters, u, v, b)
        assert vars(search).keys() == {*ANSWER, "explored"}


# ---------------------------------------------------------------------------
# Deep grids and the grid budget.
# ---------------------------------------------------------------------------


def test_long_column_and_row_complete(braid4):
    s1, s3 = braid4.letter("s1"), braid4.letter("s3")
    long = (s1,) * 4001
    for u, v in ((long, (s3,)), ((s3,), long)):
        out = rv.reverse_enumerate(braid4, u, v)
        assert out.status is ReversalStatus.COMPLETED
        (g,) = out.grids
        assert g.cell_count == 4001 and g.target == (u, v)


def test_grid_operations_on_20000_cells(braid4):
    s1, s3 = braid4.letter("s1"), braid4.letter("s3")
    long = (s1,) * 20_000
    budget = rv.Budget(max_cells=20_000)
    for u, v in (((s3,), long), (long, (s3,))):
        (g,) = rv.reverse_enumerate(braid4, u, v, budget).grids
        assert g.cell_count == 20_000
        assert rv.replay(g) == g
        assert rv.check_grid(braid4, g).ok
        assert rv.compose_h(*rv.split_h(g, len(v) // 2)) == g
    # The column: 20,001 horizontal lines with a corner at each end.
    assert rv.render_grid(g).count("+") == 2 * 20_001


def test_single_target_loop_spells_long_words_without_recursion(braid4):
    # The reversing pass builds a u-side target of 20,000 letters on a
    # stack, and the generator loop gives its answer without recursion.
    s1, s2, s3 = (braid4.letter(x) for x in ("s1", "s2", "s3"))
    long = (s1,) * 20_000
    budget = rv.Budget(max_cells=1_000_000)
    for u, v in ((long, (s3,)), ((s3,), long), (long[:2000], (s2,) * 3)):
        search, gets = assert_loops_agree(braid4, u, v, budget)
        assert search.complete and len(search.targets) == 1


def test_long_identical_words_reverse_to_unit(braid3):
    w = (braid3.letter("s1"),) * 4001
    assert rv.decide_equiv_by_reversing(braid3, w, w) is True


def test_long_words_reverse_in_linear_memory(braid3):
    # A subproblem key is a pair of word ids, so memory grows linearly with
    # the words; keyed on word suffixes it would grow quadratically, to
    # gigabytes here.
    w = (braid3.letter("s1"),) * 20_000
    budget = rv.Budget(max_cells=20_000)
    tracemalloc.start()
    try:
        assert rv.decide_equiv_by_reversing(braid3, w, w, budget) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert rv.reverse_targets(braid3, w, w, budget).explored == 20_000
    res = rv.right_lcm(braid3, w[:5000], w[:5000])
    assert res.kind is MultipleKind.LCM and res.complements == ((), ())


def test_max_grids_counts_complete_grids_only(colored42):
    # The right block below s1.b has more fillings than the whole grid has
    # grids: most of them die in the block below.
    p = colored42
    u, v = p.word("s3.a s2.b"), p.word("s1.b s2.b s1.a")
    full = rv.reverse_enumerate(p, u, v)
    assert len(full.grids) == 2
    out = rv.reverse_enumerate(p, u, v, rv.Budget(max_grids=2))
    assert out.status is ReversalStatus.COMPLETED
    assert out == full
    tight = rv.reverse_enumerate(p, u, v, rv.Budget(max_grids=1))
    assert tight.status is ReversalStatus.BUDGET_EXCEEDED
