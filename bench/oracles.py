"""Independent checkers for the benchmark's answers.

Nothing here imports `reversal.congruence` or `reversal.grids`: the
checkers read only the letter names and relation words of a presentation,
so a fault in the library's own search cannot hide itself.

- `closure` is a plain rewriting closure (breadth-first, with its own
  index of relation sides by first letter).
- `Alphabet` reads braid-like letter names (`s3`, `s3.b`) and gives three
  invariants of the congruence: length, the multiset of colours, and the
  image in the symmetric group.
- `Alphabet.burau` is the unreduced Burau matrix of the underlying braid
  at an integer t modulo a large prime.  Equal positive braids have equal
  Burau matrices, so a mismatch proves two words different.
"""

from __future__ import annotations

import random
from collections import Counter, deque

Word = tuple[int, ...]
PRIME = (1 << 61) - 1


def side_index(relations) -> dict[int, list[tuple[Word, Word]]]:
    """Oriented relation sides `src -> dst`, keyed by the first letter of
    `src`; `relations` holds (lhs, rhs) pairs of words."""
    index: dict[int, list[tuple[Word, Word]]] = {}
    for lhs, rhs in relations:
        for src, dst in ((lhs, rhs), (rhs, lhs)):
            if src and src != dst:
                index.setdefault(src[0], []).append((src, dst))
    return index


def neighbours(index, w: Word) -> list[Word]:
    out = []
    for i, letter in enumerate(w):
        for src, dst in index.get(letter, ()):
            if w[i : i + len(src)] == src:
                out.append(w[:i] + dst + w[i + len(src) :])
    return out


def closure(index, w: Word, limit: int = 200_000) -> frozenset[Word]:
    """Every word reachable from `w` by rewriting.  Raises when the class
    outgrows `limit`, so a check never passes on a truncated class."""
    seen = {w}
    queue = deque([w])
    while queue:
        for nxt in neighbours(index, queue.popleft()):
            if nxt not in seen:
                seen.add(nxt)
                if len(seen) > limit:
                    raise RuntimeError(f"closure of a length-{len(w)} word exceeds {limit}")
                queue.append(nxt)
    return frozenset(seen)


def random_rewrites(rng: random.Random, index, w: Word, k: int) -> Word:
    """Apply up to k rewrite steps, each chosen uniformly among those that
    apply, stopping early when none does.  The result is within distance k
    of `w` (and may equal it)."""
    for _ in range(k):
        options = neighbours(index, w)
        if not options:
            break
        w = rng.choice(options)
    return w


class Alphabet:
    """Braid-like letters `s<i>` or `s<i>.<colour>`: crossing i with an
    optional colour."""

    def __init__(self, letters, strands: int):
        self.strands = strands
        self.position: list[int] = []
        self.colour: list[str] = []
        for tok in letters:
            head, _, colour = tok.partition(".")
            if not head.startswith("s") or not head[1:].isdigit():
                raise ValueError(f"not a braid-like letter: {tok!r}")
            i = int(head[1:])
            if not 1 <= i < strands:
                raise ValueError(f"crossing {i} outside {strands} strands")
            self.position.append(i)
            self.colour.append(colour)

    def colours(self, w: Word) -> Counter:
        return Counter(self.colour[x] for x in w)

    def permutation(self, w: Word) -> tuple[int, ...]:
        perm = list(range(self.strands))
        for x in w:
            i = self.position[x]
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
        return tuple(perm)

    def invariants(self, w: Word) -> tuple:
        """Length, colour multiset and permutation: equal on equivalent
        words of every catalog family."""
        return (len(w), sorted(self.colours(w).items()), self.permutation(w))

    def burau(self, w: Word, t: int) -> tuple[tuple[int, ...], ...]:
        """Unreduced Burau matrix of the underlying braid at t mod PRIME."""
        n = self.strands
        m = [[int(r == c) for c in range(n)] for r in range(n)]
        one_minus_t = (1 - t) % PRIME
        for x in w:
            i = self.position[x] - 1
            # Right-multiply by the block [[1 - t, t], [1, 0]] at (i, i+1).
            for row in m:
                a, b = row[i], row[i + 1]
                row[i] = (a * one_minus_t + b) % PRIME
                row[i + 1] = (a * t) % PRIME
        return tuple(tuple(row) for row in m)
