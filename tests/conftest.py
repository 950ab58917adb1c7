from __future__ import annotations

import random

import pytest

import reversal as rv


def catalog_presentations() -> dict[str, rv.Presentation]:
    return {
        "braid3": rv.braid(3),
        "braid4": rv.braid(4),
        "colored32": rv.colored_braid(3, ["a", "b"]),
        "colored42": rv.colored_braid(4, ["a", "b"]),
        "restricted42": rv.restricted_colored(4, ["a", "b"]),
        "malcev": rv.malcev(),
    }


def direct_pairs(p, b=rv.DEFAULT_BUDGET) -> list:
    """Every pair checked standalone, in `check_completeness` order."""
    out = []
    for s in range(len(p.letters)):
        for rel in p.relations:
            out += rv.check_diamond(p, s, rel, b)
    return out


def is_carried(rep) -> bool:
    """Whether `rep` is a carried diamond report not yet filled."""
    return hasattr(rep, "_carried")


def rand_word(rng: random.Random, p: rv.Presentation, max_len: int) -> rv.Word:
    n = rng.randint(0, max_len)
    return tuple(rng.randrange(len(p.letters)) for _ in range(n))


@pytest.fixture
def braid3() -> rv.Presentation:
    return rv.braid(3)


@pytest.fixture
def braid4() -> rv.Presentation:
    return rv.braid(4)


@pytest.fixture
def colored42() -> rv.Presentation:
    return rv.colored_braid(4, ["a", "b"])
