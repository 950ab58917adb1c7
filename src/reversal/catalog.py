"""Built-in presentation families used throughout the tests and the CLI.

Braid-like families use generators s1 .. s(n-1) for n strands; colored
variants attach a color suffix, `s2.a` being the crossing at position 2
with color a.  All catalog presentations are homogeneous with unit
weights.  Relation enumeration is lexicographic in (position pair, color
tuple) so relation indices are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Sequence

from .core import Presentation, PresentationError, make_presentation


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    n: int | None
    colors: tuple[str, ...] | None
    presentation: Presentation


def _strand_tokens(n: int) -> list[str]:
    if n < 2:
        raise PresentationError("braid families need n >= 2")
    return [f"s{i}" for i in range(1, n)]


def braid(n: int) -> Presentation:
    """Artin presentation of the positive n-strand braid monoid:
    commutation for distant positions, s_i s_j s_i = s_j s_i s_j for
    adjacent ones."""
    gens = _strand_tokens(n)
    rels: list[tuple[list[str], list[str]]] = []
    for i in range(1, n - 1):
        for j in range(i + 1, n):
            si, sj = f"s{i}", f"s{j}"
            if j - i == 1:
                rels.append(([si, sj, si], [sj, si, sj]))
            else:
                rels.append(([si, sj], [sj, si]))
    return make_presentation(gens, rels)


def _color_tokens(n: int, colors: Sequence[str]) -> list[str]:
    if n < 2:
        raise PresentationError("braid families need n >= 2")
    if not colors:
        raise PresentationError("color set must be nonempty")
    if len(set(colors)) != len(colors):
        raise PresentationError("duplicate colors")
    return [f"s{i}.{c}" for i in range(1, n) for c in colors]


def _colored(
    n: int, colors: Sequence[str], adjacent: Callable[[int, int], Iterable[tuple]]
) -> Presentation:
    """Colored crossings on n strands: distant crossings commute colorwise,
    and `adjacent(i, i + 1)` gives the relations of adjacent positions, as
    (lhs, rhs) token lists."""
    gens = _color_tokens(n, colors)
    rels: list[tuple[list[str], list[str]]] = []
    for i in range(1, n - 1):
        rels += adjacent(i, i + 1)
        for j in range(i + 2, n):
            for a, b in product(colors, repeat=2):
                rels.append(([f"s{i}.{a}", f"s{j}.{b}"], [f"s{j}.{b}", f"s{i}.{a}"]))
    return make_presentation(gens, rels)


def colored_braid(n: int, colors: Sequence[str]) -> Presentation:
    """Positive braids with colored crossings: distant crossings commute
    colorwise, and adjacent positions satisfy the color-permuting
    relations si.A sj.B si.C = sj.C si.B sj.A."""
    return _colored(n, colors, lambda i, j: (
        ([f"s{i}.{a}", f"s{j}.{b}", f"s{i}.{c}"], [f"s{j}.{c}", f"s{i}.{b}", f"s{j}.{a}"])
        for a, b, c in product(colors, repeat=3)
    ))


def restricted_colored(n: int, colors: Sequence[str]) -> Presentation:
    """The restricted variant: same commutations, but in the length-3
    relations the median color must equal the first color of the side,
    si.A sj.A si.B = sj.B si.A sj.A.  Unlike the full family, the two
    orders of an adjacent position pair give genuinely different
    relations, so both are enumerated (single-color duplicates are
    deduplicated by construction)."""
    return _colored(n, colors, lambda i, j: (
        ([f"s{x}.{a}", f"s{y}.{a}", f"s{x}.{b}"], [f"s{y}.{b}", f"s{x}.{a}", f"s{y}.{a}"])
        for x, y in ((i, j), (j, i))
        for a, b in product(colors, repeat=2)
    ))


def malcev() -> Presentation:
    """The eight-generator monoid with relations ac = bd, ac' = bd',
    a'c = b'd (primes spelled with a trailing underscore).  It is left
    cancellative by the reversing criterion but does not embed in its
    universal group."""
    gens = ["a", "b", "c", "d", "a_", "b_", "c_", "d_"]
    rels = [
        (["a", "c"], ["b", "d"]),
        (["a", "c_"], ["b", "d_"]),
        (["a_", "c"], ["b_", "d"]),
    ]
    return make_presentation(gens, rels)


def color_names(k: int) -> list[str]:
    """First k one-letter color names: a, b, c, ..."""
    if not 1 <= k <= 26:
        raise PresentationError("color count must be between 1 and 26")
    return [chr(ord("a") + i) for i in range(k)]


CATALOG = {
    "braid": lambda n, colors: braid(n),
    "colored-braid": lambda n, colors: colored_braid(n, colors),
    "restricted-colored": lambda n, colors: restricted_colored(n, colors),
    "malcev": lambda n, colors: malcev(),
}


def build(name: str, n: int = 4, colors: Sequence[str] | None = None) -> Presentation:
    return entry(name, n, colors).presentation


def entry(
    name: str, n: int = 4, colors: Sequence[str] | None = None
) -> CatalogEntry:
    if name not in CATALOG:
        raise PresentationError(
            f"unknown catalog entry {name!r}; choose from {sorted(CATALOG)}"
        )
    color_list = ["a", "b"] if colors is None else list(colors)
    p = CATALOG[name](n, color_list)
    takes_n = name != "malcev"
    takes_colors = name in ("colored-braid", "restricted-colored")
    return CatalogEntry(
        name,
        n if takes_n else None,
        tuple(color_list) if takes_colors else None,
        p,
    )
