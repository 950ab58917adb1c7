"""Letter maps between presentations: the automorphisms of a
presentation, the orbits of its (generator, relation) pairs, the identity
map from a presentation's mirror onto it, and the transport of grids
along them.

A letter map σ from p onto q is a bijection of the letters that keeps
weights and maps the relation set of p onto that of q, each relation
possibly with its sides swapped; an automorphism is one from p onto p.
It maps congruence onto congruence and the grids from (s, w) one-to-one
onto those from (σs, σw), tile by tile, so it maps the diamond reports
of a pair onto those of its image.  `automorphism_relations` is the one
verifier of such maps.  `find_automorphisms` searches for automorphisms;
`orbits` keeps each that passes the verifier, after the identity, and
maps every pair to (its representative, the index of the map carrying
that onto it), in plain ints, once per presentation
(`Presentation.orbits`, shared with the mirror).

`carry` maps grids along a compiled letter map, tile by tile: each tile
maps, by its value, to the target's own tile of the image cell with the
image relation and orientation.  The images are re-sorted by trace as
`reverse_enumerate` does (an image cell may list its tiles in another
order than their keys).  A carried grid's target words are its own,
shared with no other grid.

Reversing every relation gives back the same relation set in the braid
and colored braid monoids, so there the identity m is a letter map from
a presentation's mirror onto it.  `from_mirror` relabels the mirror's
orbit table by m: its letter maps are m∘σ for each σ of the mirror's
orbits, so m itself at index 0, and each pair of p takes the entry of
its m-preimage.  Both tables are plain ints in one format, compiled once
per presentation (`Presentation.orbits`, `Presentation.from_mirror`);
`completeness` says which of them a run carries reports from.
"""

from __future__ import annotations

from typing import Sequence

from .core import Presentation, Tile, Word
from .grids import Grid, tiles

Pair = tuple[int, int]  # (generator, relation index)
# Per relation: (index of its image, 1 if σ maps lhs to the image's rhs).
Images = tuple[tuple[int, int], ...]

# Letter assignments the automorphism search may try before it stops.  A
# stopped search returns the automorphisms found so far: fewer symmetries
# only make the orbits of the completeness check finer.
AUTOMORPHISM_NODE_CAP = 20_000

def find_automorphisms(p: Presentation) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """The automorphisms of `p`, as letter maps σ (σ[i] the image of
    letter i), by a pruned depth-first search; and whether the search was
    exhaustive (False once it tried `AUTOMORPHISM_NODE_CAP` letter
    assignments).

    A letter may only map to a letter of the same weight and the same
    occurrence profile: the (side length, other side length, position) of
    each of its occurrences in the relations.  Letters are assigned in an
    order that completes relations early, and each relation is checked,
    against the oriented relation pairs, as soon as all its letters are
    mapped.  The identity is among the maps returned when the search is
    exhaustive.
    """
    n = len(p.letters)
    profiles: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for rel in p.relations:
        for side, other in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs)):
            for k, x in enumerate(side):
                profiles[x].append((len(side), len(other), k))
    invariant = [(p.weights[x], sorted(profiles[x])) for x in range(n)]
    candidates = [
        [y for y in range(n) if invariant[y] == invariant[x]] for x in range(n)
    ]
    letter_sets = [set(rel.lhs + rel.rhs) for rel in p.relations]
    sets_of: list[list[set[int]]] = [[] for _ in range(n)]
    for ls in letter_sets:
        for x in ls:
            sets_of[x].append(ls)

    # Search order: the letter that completes most relations, then the one
    # sharing most relations with the letters already placed.
    order: list[int] = []
    placed: set[int] = set()

    def score(x: int) -> tuple:
        done = sum(1 for ls in sets_of[x] if ls <= placed | {x})
        shared = sum(1 for ls in sets_of[x] if ls & placed)
        return (-done, -shared, len(candidates[x]), x)

    while len(order) < n:
        x = min((x for x in range(n) if x not in placed), key=score)
        order.append(x)
        placed.add(x)
    depth_of = {x: d for d, x in enumerate(order)}
    due: list[list[tuple[Word, Word]]] = [[] for _ in range(n)]
    for rel, ls in zip(p.relations, letter_sets):
        if ls:
            due[max(depth_of[x] for x in ls)].append((rel.lhs, rel.rhs))

    sigma = [-1] * n
    image = sigma.__getitem__
    used = [False] * n
    oriented = p.oriented_relations
    found: list[tuple[int, ...]] = []
    nodes = 0
    stack = [iter(candidates[order[0]])]
    while stack:
        depth = len(stack) - 1
        x = order[depth]
        if sigma[x] >= 0:
            used[sigma[x]] = False
            sigma[x] = -1
        y = next((y for y in stack[-1] if not used[y]), None)
        if y is None:
            stack.pop()
            continue
        nodes += 1
        if nodes > AUTOMORPHISM_NODE_CAP:
            return tuple(found), False
        sigma[x], used[y] = y, True
        if all(
            (tuple(map(image, lhs)), tuple(map(image, rhs))) in oriented
            for lhs, rhs in due[depth]
        ):
            if depth + 1 == n:
                found.append(tuple(sigma))
            else:
                stack.append(iter(candidates[order[depth + 1]]))
    return tuple(found), True


def automorphism_relations(
    p: Presentation, sigma: Sequence[int], q: Presentation | None = None
) -> Images | None:
    """The verifier: None unless `sigma` (sigma[i] the image of letter i)
    is a bijection from the letters of p onto those of q (default p) that
    keeps weights and maps the relation set of p onto that of q.
    Otherwise, for each relation of p, its image in q as (relation index,
    flip), where flip is 1 when sigma maps lhs to the image's rhs."""
    q = p if q is None else q
    n = len(p.letters)
    if len(sigma) != n or any(type(y) is not int for y in sigma):
        return None
    if len(q.letters) != n or sorted(sigma) != list(range(n)):
        return None
    if any(q.weights[sigma[x]] != p.weights[x] for x in range(n)):
        return None
    letter_image = sigma.__getitem__
    images = []
    for rel in p.relations:
        image = q.oriented_relations.get(
            (tuple(map(letter_image, rel.lhs)), tuple(map(letter_image, rel.rhs)))
        )
        if image is None:
            return None
        images.append(image)
    if not len({index for index, _ in images}) == len(images) == len(q.relations):
        return None
    return tuple(images)


def orbits(p: Presentation) -> tuple[tuple[tuple[tuple[int, ...], Images], ...], dict]:
    """The letter maps of p's orbits, each with its relation images: the
    identity first, then the other automorphisms that pass the verifier,
    in the order found; and, for every (generator, relation index) pair,
    (its representative, the index of a map carrying the representative
    onto it).  A representative is the first pair of its orbit in checking
    order (by generator, then relation), and maps to (itself, 0)."""
    identity = tuple(range(len(p.letters)))
    syms = [(identity, tuple((rel.index, 0) for rel in p.relations))]
    for sigma in find_automorphisms(p)[0]:
        images = None if sigma == identity else automorphism_relations(p, sigma)
        if images is not None:
            syms.append((sigma, images))
    table: dict[Pair, tuple[Pair, int]] = {}
    for pair in [(s, rel.index) for s in identity for rel in p.relations]:
        if pair not in table:
            for k, (sigma, images) in enumerate(syms):
                table.setdefault((sigma[pair[0]], images[pair[1]][0]), (pair, k))
    return tuple(syms), table


def carry(
    p: Presentation,
    sigma: tuple[int, ...],
    images: Images,
    grids: tuple[Grid, ...],
    source: tuple[Word, Word],
) -> tuple[tuple[Grid, ...], list[int]]:
    """The images in p of `grids`, all from `source`, under the letter map
    `sigma` with its relation `images`, in trace order; and the index of
    each one's preimage.  A tile maps, by its value, to p's tile of the
    image cell with the image relation and orientation, or to the cell's
    only tile."""
    image = sigma.__getitem__

    def tile(t: Tile) -> Tile:
        left = None if t.left is None else sigma[t.left]
        top = None if t.top is None else sigma[t.top]
        cell = tiles(p, left, top)
        if t.rel_index is None:  # a cancellation or forced tile
            return cell[0]
        index, flip = images[t.rel_index]
        orientation = t.orientation ^ flip
        return next(u for u in cell if u.rel_index == index and u.orientation == orientation)

    out = [
        Grid(p.letters, source, tuple(tuple(map(image, w)) for w in g.target),
             tuple(map(tile, g.cells)))
        for g in grids
    ]
    order = sorted(range(len(out)), key=lambda i: out[i].trace_key())
    return tuple(out[i] for i in order), order


def from_mirror(p: Presentation) -> tuple[tuple, dict] | None:
    """If the identity m verifies as a letter map from `p.mirrored` onto
    p, the letter maps (σ, relation images) and the table that carry its
    runs onto p, in the format of `orbits`: m∘σ for the k-th σ of its
    orbits at index k, so m itself at index 0; and every pair of p, as the
    m-image of a pair of the mirror, with that pair's entry in the
    mirror's orbit table.  Plain ints, compiled once per presentation as
    `Presentation.from_mirror`."""
    identity = tuple(range(len(p.letters)))
    images = automorphism_relations(p.mirrored, identity, p)
    if images is None:
        return None
    automorphisms, table = p.mirrored.orbits
    # m∘σ maps a relation to m's image of its σ image, flipped where σ flips.
    pick = (images, tuple((j, 1 - flip) for j, flip in images))
    maps = tuple(
        (sigma, tuple([pick[flip][i] for i, flip in by_sigma]))
        for sigma, by_sigma in automorphisms
    )
    return maps, {(s, images[i][0]): entry for (s, i), entry in table.items()}
