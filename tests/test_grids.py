from __future__ import annotations

import dataclasses
import json
import random
import tracemalloc
from collections import Counter

import pytest

import reversal as rv
from conftest import catalog_presentations, rand_word
from reversal.cancellativity import MultipleKind
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
            search = rv.reverse_targets(p, u, v)
            assert search.complete == complete, (u, v)
            if complete:
                compared += 1
                assert search.targets == targets, (u, v)
                assert search.stuck == stuck, (u, v)
                assert search.explored == explored, (u, v)
    assert compared == 300


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
