"""Reversing grids: elementary tiles, grid enumeration, replay.

A grid is a rectangular van Kampen diagram assembled from five kinds of
tiles.  A relation tile for left letter s and top letter t realizes an
oriented relation s·b1..bq = t·r1..rp, emitting b1..bq on its bottom edge
and r1..rp on its right edge; a cancellation tile absorbs equal letters;
pass-through and empty tiles advance a letter across an ε edge.

Edges are tracked as *segments* (a letter or ε), because a tile whose
output word is empty still contributes an ε edge that later rows must
cross with pass tiles; this is what makes cell counts and shapes agree
with hand-drawn grids.  The boundary words of a grid are the segment
labels with ε dropped.

Grids are built by factor reversing.  The boundary of an unfinished grid
is a signed word: its left segments inverted, then its top segments, so
a grid from (u, v) starts as u⁻¹v.  Placing a tile with left input s and
top input t replaces a factor s⁻¹t by b·r⁻¹, where b and r are the tile's
bottom and right outputs.  Cells always reverse the rightmost factor s⁻¹t;
when none is left the word is v1·u1⁻¹ and (u1, v1) is the target.  This
order fills the corner cell, then the block to its right, then the block
below.  The cell sequence in this order is the trace; two grids are equal
iff their traces are equal, and replaying a trace is deterministic.

Termination is not guaranteed for arbitrary presentations, so two budgets
bound an enumeration: `max_cells` bounds the cells of each branch (one
partial grid), `max_grids` the complete grids found in total.  The target
search below reads them as a bound on its reversing steps and on the
targets of one subproblem.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .congruence import Budget, DEFAULT_BUDGET
from .core import Presentation, PresentationError, Tile, TileKind, Word
from .core import is_right_complemented

# Edge segments are labelled by a letter id, or by None for ε.
EPS_WORD: Word = ()


class ReversalStatus(enum.Enum):
    COMPLETED = "completed"
    STUCK_ONLY = "stuck_only"
    BUDGET_EXCEEDED = "budget_exceeded"


class GridError(ValueError):
    """Replay failure: mismatched edges or an illegal tile."""


@dataclass(frozen=True)
class Grid:
    """A replayable record of one complete reversing diagram."""

    letters: tuple[str, ...]
    source: tuple[Word, Word]
    target: tuple[Word, Word]
    cells: tuple[Tile, ...]

    @property
    def cell_count(self) -> int:
        return len(self.cells)

    def trace_key(self) -> tuple:
        return tuple(c.key() for c in self.cells)

    def choice_cells(self) -> list[Tile]:
        return [c for c in self.cells if c.kind in (TileKind.RELATION, TileKind.CANCEL)]


@dataclass(frozen=True)
class ReversalOutcome:
    status: ReversalStatus
    grids: tuple[Grid, ...]
    stuck: tuple[tuple[int, int], ...]
    cells_filled: int

    @property
    def completed(self) -> bool:
        """Whether the branching search terminated (grids may still be
        empty: then every branch died on a stuck pair)."""
        return self.status is not ReversalStatus.BUDGET_EXCEEDED


def letter_tiles(p: Presentation, s: int, t: int) -> tuple[Tile, ...]:
    """Tiles applicable to a letter/letter cell: the cancellation tile when
    the letters agree, then one tile per oriented relation s... = t...,
    ordered by relation index then orientation."""
    return p.tile_table.get((s, t), ())


def tiles(
    p: Presentation | None, left: int | None, top: int | None
) -> tuple[Tile, ...]:
    """All tiles applicable to a cell with the given inputs; an empty
    sequence means the cell is stuck.  A cell with an ε input has exactly
    one tile, whatever the presentation; `p` is read at letter/letter
    cells only."""
    if left is None or top is None:
        return _forced(left, top)
    return letter_tiles(p, left, top)


@lru_cache(maxsize=None)
def _forced(left: int | None, top: int | None) -> tuple[Tile]:
    # Tiles are immutable, so the few forced ones are built once each.
    if left is None and top is None:
        return (Tile(TileKind.EMPTY, None, None, EPS_WORD, EPS_WORD),)
    if top is None:
        return (Tile(TileKind.PASS_LEFT, left, None, right=(left,), bottom=EPS_WORD),)
    return (Tile(TileKind.PASS_TOP, None, top, right=EPS_WORD, bottom=(top,)),)


def _segs(w: Word) -> tuple:
    """Edge segments of a tile output: its letters, or a single ε segment."""
    return w if w else (None,)


# ---------------------------------------------------------------------------
# The cell filler: every grid is built here.
# ---------------------------------------------------------------------------


def _outputs(tile: Tile, left: object, top: object) -> tuple[tuple, tuple]:
    return _segs(tile.right), _segs(tile.bottom)


def _fill(
    left: Sequence,
    top: Sequence,
    choose: Callable[[object, object], Sequence[Tile]],
    carry: Callable[[Tile, object, object], tuple[Sequence, Sequence]] = _outputs,
    max_cells: float = math.inf,
    max_grids: float = math.inf,
) -> tuple[list[tuple[list, list, list]], set, int, bool]:
    """Fill the grid with sides `left` and `top` cell by cell.

    The boundary word is two stacks around a cursor: `before` holds
    (segment, inverted) pairs, the one left of the cursor on top, and
    `after` the upright segments right of it, leftmost on top.  Inverted
    segments past `after` are the finished right side, kept top first in
    `right`.  A cell reverses the factor s⁻¹t at the cursor, pushing b·r⁻¹
    onto `before`; the cursor then moves left to the rightmost factor s⁻¹t.

    `choose(s, t)` offers the tiles for a cell with inputs s and t: the
    search forks depth first where it offers several, and a branch ends
    where it offers none.  `carry(tile, s, t)` gives a placed tile's right
    and bottom output segments; segments are labels, or (label, data)
    pairs for replays.  Returns (fillings, stuck, placed, within_budget):
    the (cells, right, bottom) of each complete grid, the input pairs of
    the cells where a branch ended, the tiles placed on all branches, and
    False if the search stopped because a branch would exceed max_cells
    cells or the fillings outnumbered max_grids.
    """
    fillings: list[tuple[list, list, list]] = []
    stuck = set()
    placed = 0
    start = ([(s, True) for s in reversed(left)], list(reversed(top)), [], [], None)
    branches = [start]
    while branches:
        before, after, right, cells, tile = branches.pop()
        while True:
            if tile is not None:
                s, t = before.pop()[0], after.pop()
                r, b = carry(tile, s, t)
                before += [(x, False) for x in b]
                before += [(x, True) for x in reversed(r)]
                cells.append(tile)
                placed += 1
            while before and not (after and before[-1][1]):
                seg, inverted = before.pop()
                (right if inverted else after).append(seg)
            if not before:
                fillings.append((cells, right, after[::-1]))
                if len(fillings) > max_grids:
                    return fillings, stuck, placed, False
                break
            s, t = before[-1][0], after[-1]
            options = choose(s, t)
            if not options:
                stuck.add((s, t))
                break
            if len(cells) >= max_cells:
                return fillings, stuck, placed, False
            for other in reversed(options[1:]):
                branches.append(
                    (before.copy(), after.copy(), right.copy(), cells.copy(), other)
                )
            tile = options[0]
    return fillings, stuck, placed, True


def _grid(
    letters: tuple[str, ...], source: tuple[Word, Word], filling: tuple
) -> Grid:
    cells, right, bottom = filling
    target = tuple(tuple(s for s in side if s is not None) for side in (right, bottom))
    return Grid(letters, source, target, tuple(cells))


def _require_reversible(p: Presentation, *words: Word) -> None:
    if p.epsilon_relations:
        raise PresentationError(
            "reversing is undefined for presentations with ε-relations"
        )
    p.check_letters(*words)


def reverse_enumerate(
    p: Presentation, u: Word, v: Word, b: Budget = DEFAULT_BUDGET
) -> ReversalOutcome:
    """Enumerate every reversing grid with source (u, v).

    Grids are returned sorted by trace; stuck letter pairs encountered on
    dead branches are recorded so that "no grid" outcomes carry witnesses.
    On BUDGET_EXCEEDED, `stuck` and `cells_filled` cover the branches
    searched, depth first, before the limit was hit.
    """
    _require_reversible(p, u, v)
    fillings, stuck, placed, within_budget = _fill(
        u, v, lambda s, t: tiles(p, s, t), max_cells=b.max_cells, max_grids=b.max_grids
    )
    if not within_budget:
        status, grids = ReversalStatus.BUDGET_EXCEEDED, []
    else:
        # Distinct branches differ in some tile, so no grid comes twice.
        grids = [_grid(p.letters, (u, v), f) for f in fillings]
        if len(grids) > 1:  # a trace key is costly, and one grid needs none
            grids.sort(key=Grid.trace_key)
        ok = grids or not stuck
        status = ReversalStatus.COMPLETED if ok else ReversalStatus.STUCK_ONLY
    return ReversalOutcome(status, tuple(grids), tuple(sorted(stuck)), placed)


def reverse_complemented(
    p: Presentation, u: Word, v: Word, b: Budget = DEFAULT_BUDGET
) -> ReversalOutcome:
    """Deterministic reversing for right-complemented presentations: the
    same search, with at most one applicable tile per cell, hence at most
    one grid."""
    if not is_right_complemented(p):
        raise PresentationError("presentation is not right complemented")
    return reverse_enumerate(p, u, v, b)


# ---------------------------------------------------------------------------
# Target-set search.
#
# Deciding whether (u, v) reverses to some target (in particular to (ε, ε))
# does not need the grids themselves.  `_target_sets` runs the same
# recursion, memoized on subproblems, and computes the set of targets while
# sharing repeated ones; ε segments can be dropped here because pass tiles
# never change the words.  Sharing sub-blocks across branches is what a
# grid filler must not do, so this search has a loop of its own, with a
# generator per open subproblem.  It visits the corner, then the block to
# its right, then the block below, counts a step for each tile it applies
# (at most max_cells), and cuts (unmemoized) a subproblem met inside itself.
#
# When no cell has two tiles (`Presentation.deterministic`, as in braid
# monoids), `_reverse` first reverses u⁻¹v as it stands: `_fill`'s cursor
# on letters, ε dropped, no memo.  A pass that ends within max_cells cells
# gives exactly the memo search's targets, stuck pairs and completeness:
# every distinct subproblem is one of its cells, so max_cells does not cut
# the memo search; a subproblem met inside itself would make the pass run
# forever, so no cycle cuts it; a subproblem has at most one target, so
# max_grids (at least 1) does not either; and both stop at the same first
# stuck cell.  Its `explored` counts the cells it placed.  A pass that
# overruns max_cells, or 8·(|u| + |v| + 1)² so that a cyclic search costs
# no more at a larger budget, is dropped for `_target_sets`, so every
# budget keeps its meaning.
#
# `_target_sets` hash-conses words: id 0 is ε, and id i > 0 is the word
# whose first letter is heads[i] and whose remainder has id tails[i].  A
# suffix is a tail pointer, a subproblem key a pair of ints, and target
# sets hold canonical ids, which deduplicate them and count toward
# max_grids.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TargetSearch:
    """What `reverse_targets` found."""

    targets: frozenset[tuple[Word, Word]]
    complete: bool
    stuck: frozenset[tuple[int, int]]
    # The tile applications of the search that answered.
    explored: int
    # The first limit that cut the search: "max_cells", "max_grids" or
    # "cycle"; None when the search is complete.
    cut: str | None = None


def reverse_targets(
    p: Presentation, u: Word, v: Word, b: Budget = DEFAULT_BUDGET
) -> TargetSearch:
    """The set of targets of all grids from (u, v).

    `complete` is False when the step budget (max_cells tile
    applications), a target-set cap (max_grids), or a cyclic subproblem
    cut the search; a True value certifies the target set is exhaustive.
    `cut` names the first of these that fired, and `explored` counts the
    tile applications.  On a deterministic presentation they are the cells
    of a reversing pass that ends within max_cells and 8·(|u| + |v| + 1)²
    cells; otherwise the memo search answers, with one step per
    letter/letter cell of a distinct subproblem."""
    _require_reversible(p, u, v)
    if p.deterministic:
        search = _reverse(p, u, v, min(b.max_cells, 8 * (len(u) + len(v) + 1) ** 2))
        if search is not None:
            return search
    return _target_sets(p, u, v, b)


def _reverse(p: Presentation, u: Word, v: Word, max_cells: int) -> TargetSearch | None:
    """The search of (u, v) on a deterministic presentation, by reversing
    u⁻¹v; None if that takes over max_cells cells.  As in `_fill`,
    `before` holds the signed letters left of the cursor, the nearest on
    top, an upright x as x and an inverted one as ~x; `after` the letters
    right of it, leftmost on top; and `right` the finished right side."""
    n, table = len(p.letters), p.reversal_table
    before, after, right = [~x for x in reversed(u)], list(reversed(v)), []
    cells = 0
    while before:
        x = before.pop()
        if x >= 0:
            after.append(x)
        elif not after:
            right.append(~x)
        else:
            t = after.pop()
            pushed = table.get(~x * n + t)
            if pushed is None:
                return TargetSearch(frozenset(), True, frozenset({(~x, t)}), cells)
            cells += 1
            if cells > max_cells:
                return None
            before += pushed
    target = (tuple(right), tuple(reversed(after)))
    return TargetSearch(frozenset({target}), True, frozenset(), cells)


def _target_sets(p: Presentation, u: Word, v: Word, b: Budget) -> TargetSearch:
    """`reverse_targets` by the memo search, on any presentation."""
    n = len(p.letters)
    heads, tails = [-1], [0]
    interned: dict[int, int] = {}  # i * n + letter -> id of letter·(word i)

    def prepend(w: Word, i: int) -> int:
        """The id of the word w followed by the word with id i."""
        for letter in reversed(w):
            node = i * n + letter
            j = interned.get(node)
            if j is None:
                j = interned[node] = len(heads)
                heads.append(letter)
                tails.append(i)
            i = j
        return i

    def spell(i: int) -> Word:
        out = []
        while i:
            out.append(heads[i])
            i = tails[i]
        return tuple(out)

    done: dict[tuple[int, int], frozenset[tuple[int, int]]] = {}
    active: set[tuple[int, int]] = set()
    stuck: set[tuple[int, int]] = set()
    steps = 0
    cut: str | None = None

    def targets(uu: int, vv: int):
        """The targets of (uu, vv), both nonempty: yields each word pair
        whose targets it needs and is sent them back."""
        nonlocal steps, cut
        s, t = heads[uu], heads[vv]
        u2, v2 = tails[uu], tails[vv]
        options = letter_tiles(p, s, t)
        if not options:
            stuck.add((s, t))
        acc: set[tuple[int, int]] = set()
        for tile in options:
            if steps >= b.max_cells:
                cut = cut or "max_cells"
                break
            steps += 1
            for a1, c in (yield prepend(tile.right, 0), v2):
                for u1, v1 in (yield u2, prepend(tile.bottom, c)):
                    acc.add((prepend(spell(a1), u1), v1))
                    if len(acc) > b.max_grids:
                        cut = cut or "max_grids"
                        break
        return frozenset(acc)

    calls: list = []  # (key, generator) of the open subproblems, innermost last
    key = (prepend(u, 0), prepend(v, 0))
    while True:
        if key in done:
            result = done[key]
        elif key in active:
            cut = cut or "cycle"
            result = frozenset()
        elif not key[0] or not key[1]:
            result = done[key] = frozenset({key})
        else:
            active.add(key)
            calls.append((key, targets(*key)))
            result = None
        # Send the result to the innermost open subproblem, closing those
        # it completes, until one asks for another pair.
        while calls:
            try:
                key = calls[-1][1].send(result)
                break
            except StopIteration as stop:
                closed = calls.pop()[0]
                active.discard(closed)
                result = done[closed] = stop.value
        else:
            pairs = frozenset((spell(a), spell(c)) for a, c in result)
            return TargetSearch(pairs, cut is None, frozenset(stuck), steps, cut)


# ---------------------------------------------------------------------------
# Replay: rebuild a grid from its trace, check, compose and split grids.
#
# Replays carry a datum with every segment, as a (label, data) pair: a
# region tag on top segments, which a tile's bottom outputs inherit, or the
# coordinates a drawing needs.
# ---------------------------------------------------------------------------


def _pairs(w: Sequence, data: object = None) -> list[tuple]:
    return [(s, data) for s in w]


def _carry_tag(tile: Tile, left: tuple, top: tuple) -> tuple[list, list]:
    return _pairs(_segs(tile.right)), _pairs(_segs(tile.bottom), top[1])


def _replay(
    left: Sequence[tuple],
    top: Sequence[tuple],
    next_tile: Callable[[object], Tile],
    carry: Callable[[Tile, tuple, tuple], tuple[list, list]] = _carry_tag,
) -> tuple[list, list, list]:
    """The one filling (cells, right labels, bottom labels) of the grid with
    sides `left` and `top`: ε cells take their forced tile, each
    letter/letter cell the tile next_tile(data of its top segment)."""

    def choose(left_seg: tuple, top_seg: tuple) -> tuple[Tile, ...]:
        ell, t = left_seg[0], top_seg[0]
        if ell is None or t is None:
            return tiles(None, ell, t)
        tile = next_tile(top_seg[1])
        if tile.left != ell or tile.top != t:
            raise GridError(
                f"edge mismatch: expected cell ({ell}, {t}), "
                f"trace has ({tile.left}, {tile.top})"
            )
        return (tile,)

    ((cells, right, bottom),), _, _, _ = _fill(left, top, choose, carry)
    return cells, [s for s, _ in right], [s for s, _ in bottom]


def _next_tile(queue) -> Tile:
    tile = next(queue, None)
    if tile is None:
        raise GridError("trace ended before the grid was filled")
    return tile


def _replay_trace(
    left: Sequence[tuple],
    top: Sequence[tuple],
    choice_cells: list[Tile],
    carry: Callable[[Tile, tuple, tuple], tuple[list, list]] = _carry_tag,
) -> tuple[list, list, list]:
    """`_replay` whose letter/letter cells are `choice_cells`, in trace
    order; raises GridError when the trace ends early or has cells left."""
    queue = iter(choice_cells)
    filling = _replay(left, top, lambda _: _next_tile(queue), carry)
    if next(queue, None) is not None:
        raise GridError("trace has unused cells")
    return filling


def _rebuild(
    letters: tuple[str, ...], source: tuple[Word, Word], choice_cells: list[Tile]
) -> Grid:
    """The grid from `source` whose letter/letter cells are `choice_cells`,
    in trace order."""
    filling = _replay_trace(_pairs(source[0]), _pairs(source[1]), choice_cells)
    return _grid(letters, source, filling)


def replay(g: Grid) -> Grid:
    """Rebuild a grid from its source and trace; raises GridError when the
    trace does not fit."""
    return _rebuild(g.letters, g.source, g.choice_cells())


def compose_h(g1: Grid, g2: Grid) -> Grid:
    """Concatenate grids side by side: g1 from (u, v') to (u', v1') and g2
    from (u', v'') to (u1, v1'') give the grid from (u, v'v'') to
    (u1, v1'v1'')."""
    if g1.letters != g2.letters:
        raise GridError("grids come from different alphabets")
    if g1.target[0] != g2.source[0]:
        raise GridError(
            "edge mismatch: right word of g1 differs from left word of g2"
        )
    queues = {1: iter(g1.choice_cells()), 2: iter(g2.choice_cells())}
    u = g1.source[0]
    top = _pairs(g1.source[1], 1) + _pairs(g2.source[1], 2)
    filling = _replay(_pairs(u), top, lambda tag: _next_tile(queues[tag]))
    for tag, queue in queues.items():
        if next(queue, None) is not None:
            raise GridError(f"grid {tag} has cells not used by the composition")
    composed = _grid(g1.letters, (u, g1.source[1] + g2.source[1]), filling)
    expected = (g2.target[0], g1.target[1] + g2.target[1])
    if composed.target != expected:
        raise GridError("composition produced an unexpected target")
    return composed


def split_h(g: Grid, k: int) -> tuple[Grid, Grid]:
    """Split a grid below the first k letters of its top word, returning
    the two grids whose horizontal composition is `g`."""
    u, v = g.source
    if not 0 <= k <= len(v):
        raise GridError(f"split position {k} out of range")
    queue = iter(g.choice_cells())
    by_region: dict[object, list[Tile]] = {1: [], 2: []}

    def record(tag: object) -> Tile:
        tile = _next_tile(queue)
        by_region[tag].append(tile)
        return tile

    # Walk the original trace, attributing each choice cell to the region
    # of its top segment.
    _replay(_pairs(u), _pairs(v[:k], 1) + _pairs(v[k:], 2), record)
    if next(queue, None) is not None:
        raise GridError("trace has unused cells")
    g_left = _rebuild(g.letters, (u, v[:k]), by_region[1])
    g_right = _rebuild(g.letters, (g_left.target[0], v[k:]), by_region[2])
    return g_left, g_right


@dataclass(frozen=True)
class GridCheck:
    ok: bool
    failure: str | None = None


def check_grid(p: Presentation, g: Grid) -> GridCheck:
    """Replay the trace, requiring every tile to be applicable and every
    edge to match."""
    if g.letters != p.letters:
        return GridCheck(False, "alphabet mismatch")
    for i, tile in enumerate(g.choice_cells()):
        if tile not in letter_tiles(p, tile.left, tile.top):
            return GridCheck(False, f"choice cell {i}: tile is not applicable")
    try:
        rebuilt = replay(g)
    except GridError as exc:
        return GridCheck(False, str(exc))
    if rebuilt.cells != g.cells:
        return GridCheck(False, "replayed cells differ from the stored trace")
    if rebuilt.target != g.target:
        return GridCheck(False, f"target mismatch: replay gives {rebuilt.target}")
    return GridCheck(True)


# ---------------------------------------------------------------------------
# Rendering and JSON.
# ---------------------------------------------------------------------------

EPS_LABEL = "ε"


def _fmt_word(letters: tuple[str, ...], w: Word) -> str:
    return " ".join(letters[i] for i in w) if w else EPS_LABEL


def render_grid(g: Grid) -> str:
    """Deterministic ASCII drawing: lattice lines, one label per edge
    segment, ε segments labelled explicitly.  Raises GridError, as
    `replay` does, when the trace does not fit."""
    from fractions import Fraction  # on first drawing, not at every import of the package

    u, v = g.source
    hedges: dict[tuple, str] = {}
    vedges: dict[tuple, str] = {}

    def label(seg) -> str:
        return EPS_LABEL if seg is None else g.letters[seg]

    def split(segs: tuple, a, c) -> list[tuple]:
        # A tile splits each input's interval evenly among its outputs.
        n = len(segs)
        return [(s, (a + (c - a) * i / n, a + (c - a) * (i + 1) / n)) for i, s in enumerate(segs)]

    def carry(tile: Tile, left: tuple, top: tuple) -> tuple[list, list]:
        """Outputs carry their intervals, exact fractions of a source
        letter; every edge met is recorded."""
        (ell, (y0, y1)), (t, (x0, x1)) = left, top
        hedges.setdefault((y0, x0, x1), label(t))
        vedges.setdefault((x0, y0, y1), label(ell))
        bottom = split(_segs(tile.bottom), x0, x1)
        for s, (a, c) in bottom:
            hedges.setdefault((y1, a, c), label(s))
        right = split(_segs(tile.right), y0, y1)
        for s, (a, c) in right:
            vedges.setdefault((x1, a, c), label(s))
        return right, bottom

    left, top = split(u, Fraction(0), Fraction(len(u))), split(v, Fraction(0), Fraction(len(v)))
    _replay_trace(left, top, g.choice_cells(), carry)
    if not g.cells:
        return f"({_fmt_word(g.letters, u)}, {_fmt_word(g.letters, v)})"

    xs = sorted({x for (_, a, c) in hedges for x in (a, c)} | {x for (x, _, _) in vedges})
    ys = sorted({y for (y, _, _) in hedges} | {y for (_, a, c) in vedges for y in (a, c)})
    width = max(
        [4]
        + [len(lab) + 2 for lab in hedges.values()]
        + [len(lab) + 1 for lab in vedges.values()]
    )
    margin = max(len(lab) for lab in vedges.values()) + 1
    ncols = len(xs) + (len(xs) - 1) * width + margin
    nrows = 2 * len(ys) - 1
    canvas = [[" "] * ncols for _ in range(nrows)]
    col = {x: i * (width + 1) for i, x in enumerate(xs)}
    row = {y: i * 2 for i, y in enumerate(ys)}
    for (y, a, c), lab in sorted(hedges.items()):
        r, c0, c1 = row[y], col[a], col[c]
        for cc in range(c0, c1 + 1):
            canvas[r][cc] = "-"
        canvas[r][c0] = canvas[r][c1] = "+"
        mid = (c0 + c1 + 1 - len(lab)) // 2
        for k, ch in enumerate(lab):
            canvas[r][mid + k] = ch
    for (x, a, c), lab in sorted(vedges.items()):
        cc, r0, r1 = col[x], row[a], row[c]
        for rr in range(r0, r1 + 1):
            if canvas[rr][cc] == " ":
                canvas[rr][cc] = "|"
        canvas[r0][cc] = canvas[r1][cc] = "+"
        mid_row = (r0 + r1) // 2
        if mid_row % 2 == 0:
            mid_row += 1 if mid_row + 1 <= r1 else -1
        for k, ch in enumerate(lab):
            if cc + 1 + k < ncols:
                canvas[mid_row][cc + 1 + k] = ch
    return "\n".join("".join(line).rstrip() for line in canvas)


def grid_to_json(g: Grid) -> dict:
    def tok(seg) -> str | None:
        return None if seg is None else g.letters[seg]

    def word_tokens(w: Word) -> list[str]:
        return [g.letters[i] for i in w]

    cells = []
    for c in g.cells:
        entry: dict = {
            "left": tok(c.left),
            "top": tok(c.top),
            "kind": c.kind.value,
            "right": word_tokens(c.right),
            "bottom": word_tokens(c.bottom),
        }
        if c.rel_index is not None:
            entry["rel_index"] = c.rel_index
            entry["orientation"] = c.orientation
        cells.append(entry)
    return {
        "source": [word_tokens(g.source[0]), word_tokens(g.source[1])],
        "target": [word_tokens(g.target[0]), word_tokens(g.target[1])],
        "cells": cells,
    }


def grid_from_json(p: Presentation, doc: dict) -> Grid:
    """The grid that `grid_to_json` wrote as `doc`.  Raises GridError for a
    malformed document (a missing key, a list that is not one, an unknown
    tile kind) and PresentationError for an unknown letter."""

    def seg(tok) -> int | None:
        return None if tok is None else p.letter(tok)

    def word(tokens: list[str]) -> Word:
        if not isinstance(tokens, list):
            raise GridError(f"a word must be a list of letters, not {tokens!r}")
        return tuple(p.letter(t) for t in tokens)

    def sides(key: str) -> tuple[Word, Word]:
        pair = doc[key]
        if not isinstance(pair, list) or len(pair) != 2:
            raise GridError(f"{key!r} must be a list of two words")
        return word(pair[0]), word(pair[1])

    def tile(c: dict) -> Tile:
        try:
            kind = TileKind(c["kind"])
        except ValueError:
            raise GridError(f"unknown tile kind {c['kind']!r}") from None
        return Tile(
            kind, seg(c["left"]), seg(c["top"]), word(c["right"]), word(c["bottom"]),
            c.get("rel_index"), c.get("orientation"),
        )

    try:
        if not isinstance(doc["cells"], list):
            raise GridError("'cells' must be a list")
        return Grid(p.letters, sides("source"), sides("target"), tuple(map(tile, doc["cells"])))
    except (KeyError, TypeError) as exc:
        raise GridError(f"malformed grid document: {exc!r}") from None
