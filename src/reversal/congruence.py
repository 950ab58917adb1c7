"""Breadth-first oracle for the congruence generated by the relations.

A single rewrite step replaces one occurrence of a relation side by the
other side, at any position and in either orientation.  Rewriting is
symmetric, so the congruence class of a word is its connected component in
the rewrite graph and the combinatorial distance is the graph distance.

Two search modes are provided: full class enumeration (cached; used when
many distance queries against one source are expected) and an exact
bidirectional search for single equivalence queries.  For
weight-homogeneous presentations with positive weights every class is
finite, so searches reach fixed points; otherwise exploration is cut off
by the budget and flagged.  A negative answer ("not equivalent") is only
ever derived from a fully enumerated class, never from running out of
budget.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .core import Presentation, Word

INFINITE = float("inf")


@dataclass(frozen=True)
class Budget:
    """Explicit bounds; exceeding any of them yields an inconclusive status,
    never a silent truncation."""

    max_class_size: int = 100_000
    max_cells: int = 10_000
    max_grids: int = 10_000
    max_word_weight: int = 12

    def __post_init__(self) -> None:
        for name in ("max_class_size", "max_cells", "max_grids", "max_word_weight"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


DEFAULT_BUDGET = Budget()


class EquivStatus(enum.Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not-equivalent"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class EquivalenceOutcome:
    status: EquivStatus
    distance: int | None
    explored: int

    @property
    def is_equivalent(self) -> bool:
        return self.status is EquivStatus.EQUIVALENT

    @property
    def decided(self) -> bool:
        return self.status is not EquivStatus.BUDGET_EXHAUSTED


@dataclass(frozen=True)
class ClassResult:
    words: frozenset[Word]
    complete: bool
    explored: int


def rewrite_neighbors(p: Presentation, w: Word) -> list[Word]:
    """All words one relation application away from `w`."""
    out: list[Word] = []
    n = len(w)
    for rel in p.relations:
        for src, dst in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
            if src == dst:
                continue
            k = len(src)
            for i in range(n - k + 1):
                if w[i : i + k] == src:
                    out.append(w[:i] + dst + w[i + k :])
    return out


def _weight_cap(p: Presentation, b: Budget, *words: Word) -> int:
    # Start words heavier than the budget must still be explorable; for
    # homogeneous presentations rewriting never changes the weight anyway.
    return max(b.max_word_weight, *(p.word_weight(w) for w in words))


@lru_cache(maxsize=4096)
def _bfs_class(
    p: Presentation, w: Word, max_class_size: int, weight_cap: int
) -> tuple[dict[Word, int], bool]:
    """Distance map over the class of `w`, and whether it is complete."""
    dist: dict[Word, int] = {w: 0}
    queue: deque[Word] = deque([w])
    complete = True
    while queue:
        cur = queue.popleft()
        d = dist[cur] + 1
        for nxt in rewrite_neighbors(p, cur):
            if nxt in dist:
                continue
            if len(dist) >= max_class_size or p.word_weight(nxt) > weight_cap:
                complete = False
                continue
            dist[nxt] = d
            queue.append(nxt)
    return dist, complete


def class_distances(
    p: Presentation, w: Word, b: Budget = DEFAULT_BUDGET
) -> tuple[dict[Word, int], bool]:
    return _bfs_class(p, w, b.max_class_size, _weight_cap(p, b, w))


def equivalence_class(
    p: Presentation, w: Word, b: Budget = DEFAULT_BUDGET
) -> ClassResult:
    """Breadth-first closure of {w} under single relation applications."""
    dist, complete = class_distances(p, w, b)
    return ClassResult(frozenset(dist), complete, explored=len(dist))


def are_equivalent(
    p: Presentation, u: Word, v: Word, b: Budget = DEFAULT_BUDGET
) -> EquivalenceOutcome:
    """Decide u ≡ v by bidirectional breadth-first search; an Equivalent
    outcome carries the exact combinatorial distance.

    The two visited sets alternate level expansions (smaller frontier
    first).  A meeting yields a candidate distance, which is exact once the
    completed level depths rule out shorter paths; an emptied frontier
    means one class was exhaustively enumerated.
    """
    if u == v:
        return EquivalenceOutcome(EquivStatus.EQUIVALENT, 0, explored=1)
    cap = _weight_cap(p, b, u, v)
    du: dict[Word, int] = {u: 0}
    dv: dict[Word, int] = {v: 0}
    fu: list[Word] = [u]
    fv: list[Word] = [v]
    lu = lv = 0
    best: int | None = None
    capped = False
    while fu and fv:
        if best is not None and best <= lu + lv + 1:
            return EquivalenceOutcome(EquivStatus.EQUIVALENT, best, len(du) + len(dv))
        if len(du) + len(dv) > b.max_class_size:
            return EquivalenceOutcome(
                EquivStatus.BUDGET_EXHAUSTED, None, len(du) + len(dv)
            )
        if len(fu) <= len(fv):
            frontier, dist, other, level = fu, du, dv, lu
            lu += 1
        else:
            frontier, dist, other, level = fv, dv, du, lv
            lv += 1
        new_frontier: list[Word] = []
        for cur in frontier:
            for nxt in rewrite_neighbors(p, cur):
                if nxt in dist:
                    continue
                if p.word_weight(nxt) > cap:
                    capped = True
                    continue
                dist[nxt] = level + 1
                new_frontier.append(nxt)
                if nxt in other:
                    cand = level + 1 + other[nxt]
                    if best is None or cand < best:
                        best = cand
        frontier[:] = new_frontier
    explored = len(du) + len(dv)
    if best is not None:
        return EquivalenceOutcome(EquivStatus.EQUIVALENT, best, explored)
    if capped:
        # The emptied frontier was truncated by the weight cap, so the class
        # was not fully enumerated; refuse to certify inequivalence.
        return EquivalenceOutcome(EquivStatus.BUDGET_EXHAUSTED, None, explored)
    return EquivalenceOutcome(EquivStatus.NOT_EQUIVALENT, None, explored)


def clear_caches() -> None:
    _bfs_class.cache_clear()
