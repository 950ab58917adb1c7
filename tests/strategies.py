"""Hypothesis strategies for presentations with automorphisms, shared by
the orbit tests."""

from __future__ import annotations

from hypothesis import strategies as st

import reversal as rv


@st.composite
def symmetric_presentations(draw) -> rv.Presentation:
    """Homogeneous presentations on 2-4 letters with unit weights, closed
    under a random letter permutation, so that most have automorphisms."""
    n = draw(st.integers(2, 4))
    letters = [f"x{i}" for i in range(n)]
    perm = draw(st.permutations(range(n)))
    side = st.integers(1, 3).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
            st.lists(st.integers(0, n - 1), min_size=k, max_size=k),
        )
    )
    rels = draw(st.lists(side, min_size=1, max_size=4))
    closed = []
    for lhs, rhs in rels:
        for _ in range(n):
            closed.append(([letters[i] for i in lhs], [letters[i] for i in rhs]))
            lhs, rhs = [perm[i] for i in lhs], [perm[i] for i in rhs]
    return rv.make_presentation(letters, closed)


@st.composite
def artin_presentations(draw) -> rv.Presentation:
    """Artin-type presentations on 3-4 letters: for each two letters x, y a
    commutation x y = y x or a braid relation x y x = y x y, the choice
    constant on the orbits of a random letter permutation, which is then an
    automorphism.  Many are complete with a positive defect."""
    n = draw(st.integers(3, 4))
    letters = [f"x{i}" for i in range(n)]
    perm = draw(st.permutations(range(n)))
    length: dict[tuple[int, int], int] = {}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in length:
                k = draw(st.sampled_from([2, 3]))
                x, y = i, j
                for _ in range(n * n):  # the orbit of {i, j}
                    length[min(x, y), max(x, y)] = k
                    x, y = perm[x], perm[y]
    rels = []
    for (i, j), k in sorted(length.items()):
        rels.append(([letters[(i, j)[t % 2]] for t in range(k)],
                     [letters[(j, i)[t % 2]] for t in range(k)]))
    return rv.make_presentation(letters, rels)


@st.composite
def multi_relation_presentations(draw) -> rv.Presentation:
    """Homogeneous presentations on 2-3 letters with unit weights and, for
    each two letters s, t, 1-3 relations s... = t..., as the paper allows,
    so that most cells take several relation tiles."""
    n = draw(st.integers(2, 3))
    letters = [f"x{i}" for i in range(n)]
    rels = []
    for s in range(n):
        for t in range(s + 1, n):
            for _ in range(draw(st.integers(1, 3))):
                k = draw(st.integers(0, 2))
                tail = st.lists(st.integers(0, n - 1), min_size=k, max_size=k)
                lhs, rhs = [s] + draw(tail), [t] + draw(tail)
                rels.append(([letters[i] for i in lhs], [letters[i] for i in rhs]))
    return rv.make_presentation(letters, rels)


def with_mirror(p: rv.Presentation) -> rv.Presentation:
    """p with the reverse of each relation added, so that the identity
    letter map is an isomorphism from its mirror onto it."""
    rels = [(p.tokens(r.lhs), p.tokens(r.rhs)) for r in p.relations]
    return rv.make_presentation(p.letters, rels + [(lhs[::-1], rhs[::-1]) for lhs, rhs in rels])
