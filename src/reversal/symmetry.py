"""Automorphisms of a presentation: the search and the verifier.

An automorphism σ of a presentation is a permutation of its letters that
keeps weights and maps the relation set onto itself, each relation
possibly with its sides swapped.  It is a monoid automorphism, so it keeps
congruence, and it maps the grids from (s, w) one-to-one onto the grids
from (σs, σw), tile by tile; `check_completeness` uses this to check one
(generator, relation) pair per orbit.  `find_automorphisms` searches for
σ, and `automorphism_relations` is the verifier that every σ passes
before use.

Both read a presentation's fields and return plain tuples of ints.  The
package imports this module on first use only, so importing the package
does not compile it.
"""

from __future__ import annotations

from typing import Sequence

from .core import Presentation, Word

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
    p: Presentation, sigma: Sequence[int]
) -> tuple[tuple[int, int], ...] | None:
    """The verifier: None unless `sigma` (sigma[i] the image of letter i)
    is a weight-preserving bijection of the letters that maps the relation
    set onto itself.  Otherwise, for each relation, its image as (relation
    index, flip), where flip is 1 when sigma maps lhs to the image's rhs."""
    n = len(p.letters)
    if len(sigma) != n or any(type(y) is not int for y in sigma):
        return None
    if sorted(sigma) != list(range(n)):
        return None
    if any(p.weights[sigma[x]] != p.weights[x] for x in range(n)):
        return None
    letter_image = sigma.__getitem__
    images = []
    for rel in p.relations:
        image = p.oriented_relations.get(
            (tuple(map(letter_image, rel.lhs)), tuple(map(letter_image, rel.rhs)))
        )
        if image is None:
            return None
        images.append(image)
    if len({index for index, _ in images}) != len(images):
        return None
    return tuple(images)
