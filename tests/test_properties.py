"""Property tests on random small presentations.

Presentations have 2-5 generator tokens drawn from the token grammar,
weights 1-3, and relation sides of length 0-3, with repeated relations
allowed; the grid square test draws homogeneous presentations with
automorphisms (`strategies.symmetric_presentations`), and the word
problem tests draw Artin-type ones (`strategies.artin_presentations`)
and those.  Runs are derandomized, so every run checks the same
examples.
"""

from __future__ import annotations

import itertools
import json
import string

from hypothesis import given, settings
from hypothesis import strategies as st

import reversal as rv
from reversal.completeness import Verdict
from reversal.congruence import rewrite_neighbors
from test_compiled import scan_rewrite_neighbors
from strategies import artin_presentations, multi_relation_presentations, symmetric_presentations

# Generator tokens by the grammar [A-Za-z][A-Za-z0-9_.^-]*, at most 4 long.
TOKENS = st.builds(
    str.__add__,
    st.sampled_from(string.ascii_letters),
    st.text(string.ascii_letters + string.digits + "_.^-", max_size=3),
)

PROPERTY_SETTINGS = settings(
    max_examples=60, deadline=None, derandomize=True, database=None
)


@st.composite
def presentations(draw, epsilon: bool = True) -> rv.Presentation:
    """Without `epsilon`, sides have length 1-3, so no relation is an
    ε-relation."""
    letters = draw(st.lists(TOKENS, min_size=2, max_size=5, unique=True))
    weights = {tok: draw(st.integers(1, 3)) for tok in letters}
    side = st.lists(st.sampled_from(letters), min_size=0 if epsilon else 1, max_size=3)
    relations = draw(st.lists(st.tuples(side, side), max_size=6))
    return rv.make_presentation(letters, relations, weights)


@PROPERTY_SETTINGS
@given(presentations())
def test_format_then_parse_keeps_the_presentation(p):
    q = rv.parse_presentation(rv.format_presentation(p))
    assert (q.letters, q.relations, q.weights) == (p.letters, p.relations, p.weights)


@PROPERTY_SETTINGS
@given(presentations())
def test_mirror_is_an_involution(p):
    assert rv.mirror(rv.mirror(p)) == p


@PROPERTY_SETTINGS
@given(presentations(), st.data())
def test_rewrite_index_finds_what_a_scan_finds(p, data):
    # The draws have ε-relations, one-letter sources, equal sides and 1 = 1.
    word = st.lists(st.integers(0, len(p.letters) - 1), max_size=10).map(tuple)
    for q in (p, p.mirrored):
        for _ in range(5):
            w = data.draw(word)
            assert rewrite_neighbors(q, w) == scan_rewrite_neighbors(q, w)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.one_of(presentations(epsilon=False), multi_relation_presentations()), st.data())
def test_grid_json_round_trips(p, data):
    word = st.lists(st.integers(0, len(p.letters) - 1), max_size=4).map(tuple)
    u, v = data.draw(word), data.draw(word)
    outcome = rv.reverse_enumerate(p, u, v, rv.Budget(max_cells=200, max_grids=20))
    for g in outcome.grids:
        doc = json.loads(json.dumps(rv.grid_to_json(g)))
        assert rv.grid_from_json(p, doc) == g


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.one_of(symmetric_presentations(), multi_relation_presentations()), st.data())
def test_enumerated_grids_replay_and_close_their_square(p, data):
    # Every grid from (u, v), to (u1, v1), is a grid of p, is its own
    # replay, and has u·v1 ≡ v·u1 by the bidirectional search.
    word = st.lists(st.integers(0, len(p.letters) - 1), max_size=4).map(tuple)
    u, v = data.draw(word), data.draw(word)
    outcome = rv.reverse_enumerate(p, u, v, rv.Budget(max_cells=200, max_grids=20))
    for g in outcome.grids:
        assert rv.check_grid(p, g).ok
        assert rv.replay(g) == g
        u1, v1 = g.target
        assert rv.are_equivalent(p, u + v1, v + u1).is_equivalent


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(artin_presentations())
def test_reversing_decides_equivalence_on_complete_presentations(p):
    # When the check is Complete, reversing agrees with the bidirectional
    # search on every pair of words of length at most 3: an equivalent pair
    # reverses to (ε, ε), and a decided answer is the search's.  A pair with
    # no common multiple (Artin types that are not spherical) may reverse
    # without end, so the target search may be cut there: None, not False.
    if rv.check_completeness(p).verdict is not Verdict.COMPLETE:
        return
    words = [w for k in range(4) for w in itertools.product(range(len(p.letters)), repeat=k)]
    for u, v in itertools.product(words, repeat=2):
        equivalent = rv.are_equivalent(p, u, v).is_equivalent
        decided = rv.decide_equiv_by_reversing(p, u, v)
        assert decided is equivalent or (decided is None and not equivalent), (u, v)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(symmetric_presentations())
def test_reversing_decides_equivalence_on_complete_symmetric_presentations(p):
    # The same agreement.  Unlike the Artin types, many of these have
    # several tiles in some cell, so the memo search answers there.
    # Completeness is checked under a small budget: at the default one,
    # some draws take far longer.
    budget = rv.Budget(max_cells=200, max_grids=200)
    if rv.check_completeness(p, budget).verdict is not Verdict.COMPLETE:
        return
    words = [w for k in range(4) for w in itertools.product(range(len(p.letters)), repeat=k)]
    for u, v in itertools.product(words, repeat=2):
        equivalent = rv.are_equivalent(p, u, v).is_equivalent
        decided = rv.decide_equiv_by_reversing(p, u, v)
        assert decided is equivalent or (decided is None and not equivalent), (u, v)


def _right_complemented_by_scan(p: rv.Presentation) -> bool:
    # The definition, relation by relation: at most one relation
    # `s... = t...` per unordered letter pair, none with an empty side or
    # with both sides starting with the same letter.
    seen: set[frozenset[int]] = set()
    for r in p.relations:
        if not r.lhs or not r.rhs or r.lhs[0] == r.rhs[0]:
            return False
        pair = frozenset((r.lhs[0], r.rhs[0]))
        if pair in seen:
            return False
        seen.add(pair)
    return True


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(presentations())
def test_right_complemented_from_compiled_data_matches_the_scan(p):
    # Sides have length 0-3, so ε-relations and `1 = 1` both occur.
    for q in (p, p.mirrored):
        assert rv.is_right_complemented(q) is _right_complemented_by_scan(q)
