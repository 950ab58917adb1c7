"""Finitely presented monoids: alphabets, words, relations, presentations.

A presentation is an alphabet of generator tokens together with a list of
unordered pairs of words ("relations").  Letters are interned to dense
integer ids at construction time; a word is a tuple of ids, with the empty
tuple standing for the unit.  Every value here is immutable, so all
operations in this package are pure functions of their inputs.

Generator weights (positive integers, default 1) extend additively to
words.  When every relation is weight-balanced, the weighted length is
invariant under the congruence and witnesses right noetherianity of the
presented monoid; that is the only noetherianity witness this package
supports.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

Word = tuple[int, ...]

EPSILON: Word = ()

TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.^-]*")

# Spelling of the empty word in presentation files and on the command line.
EPSILON_TOKEN = "1"


class PresentationError(ValueError):
    """Malformed presentation (bad token, unknown letter, bad weight...)."""


class ParseError(PresentationError):
    """Syntax error in a presentation file, with 1-based position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Relation:
    """One unordered pair of words.  Storage fixes an orientation; every
    consumer treats both orientations."""

    lhs: Word
    rhs: Word
    index: int

    def as_pair(self) -> frozenset[Word]:
        return frozenset((self.lhs, self.rhs))

    @property
    def is_epsilon(self) -> bool:
        return (not self.lhs) != (not self.rhs)


@dataclass(frozen=True)
class Diagnostic:
    kind: str
    message: str
    relation_index: int | None = None


@dataclass(frozen=True)
class Presentation:
    letters: tuple[str, ...]
    relations: tuple[Relation, ...]
    weights: tuple[int, ...]
    duplicates_dropped: int = 0

    # cached_property writes through __dict__, which frozen dataclasses allow.
    @cached_property
    def token_ids(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.letters)}

    @cached_property
    def weight_homogeneous(self) -> bool:
        return all(
            self.word_weight(r.lhs) == self.word_weight(r.rhs) for r in self.relations
        )

    @cached_property
    def epsilon_relations(self) -> tuple[int, ...]:
        return tuple(r.index for r in self.relations if r.is_epsilon)

    def __hash__(self) -> int:
        return hash((self.letters, self.relations, self.weights))

    def letter(self, token: str) -> int:
        try:
            return self.token_ids[token]
        except KeyError:
            raise PresentationError(f"unknown letter {token!r}") from None

    def word(self, text: str | Iterable[str]) -> Word:
        """Build a word from whitespace-separated tokens; `1` spells the
        empty word."""
        tokens = text.split() if isinstance(text, str) else list(text)
        if tokens == [EPSILON_TOKEN]:
            return EPSILON
        return tuple(self.letter(t) for t in tokens)

    def word_str(self, w: Word) -> str:
        if not w:
            return EPSILON_TOKEN
        return " ".join(self.letters[i] for i in w)

    def tokens(self, w: Word) -> list[str]:
        return [self.letters[i] for i in w]

    def word_weight(self, w: Word) -> int:
        return sum(self.weights[i] for i in w)


def make_presentation(
    letters: Sequence[str],
    relations: Iterable[tuple[Sequence[str] | str, Sequence[str] | str]],
    weights: dict[str, int] | None = None,
) -> Presentation:
    """Intern letters, resolve relation tokens, deduplicate relations.

    Relations equal as unordered pairs (in either orientation) are dropped,
    keeping the first occurrence; the count of dropped duplicates is kept on
    the presentation so `validate` can report it.
    """
    seen_tokens: set[str] = set()
    for tok in letters:
        if not TOKEN_RE.fullmatch(tok):
            raise PresentationError(f"invalid generator token {tok!r}")
        if tok in seen_tokens:
            raise PresentationError(f"duplicate generator token {tok!r}")
        seen_tokens.add(tok)
    letters_t = tuple(letters)
    ids = {tok: i for i, tok in enumerate(letters_t)}

    weight_list = [1] * len(letters_t)
    for tok, wt in (weights or {}).items():
        if tok not in ids:
            raise PresentationError(f"weight for unknown letter {tok!r}")
        if wt <= 0:
            raise PresentationError(f"non-positive weight {wt} for letter {tok!r}")
        weight_list[ids[tok]] = wt

    def resolve(side: Sequence[str] | str) -> Word:
        tokens = side.split() if isinstance(side, str) else list(side)
        if tokens == [EPSILON_TOKEN]:
            return EPSILON
        out = []
        for t in tokens:
            if t not in ids:
                raise PresentationError(f"unknown letter {t!r} in relation")
            out.append(ids[t])
        return tuple(out)

    rels: list[Relation] = []
    seen_pairs: set[frozenset[Word]] = set()
    dropped = 0
    for lhs_raw, rhs_raw in relations:
        lhs, rhs = resolve(lhs_raw), resolve(rhs_raw)
        pair = frozenset((lhs, rhs))
        if pair in seen_pairs:
            dropped += 1
            continue
        seen_pairs.add(pair)
        rels.append(Relation(lhs, rhs, index=len(rels)))

    return Presentation(letters_t, tuple(rels), tuple(weight_list), dropped)


def parse_presentation(source: str) -> Presentation:
    """Parse the line-oriented presentation file format.

    Grammar (UTF-8): `#` starts a comment, blank lines are skipped.
      gens: <tok> <tok> ...          exactly once
      weights: <tok>=<posint> ...    optional, at most once
      rel: <toks> = <toks>           zero or more; an empty side is written `1`
    """
    gens: list[str] | None = None
    gens_line = 0
    weights: dict[str, int] | None = None
    rel_specs: list[tuple[list[str], list[str]]] = []
    rel_positions: list[tuple[int, str]] = []

    def token_col(line: str, token: str, start: int = 0) -> int:
        pos = line.find(token, start)
        return pos + 1 if pos >= 0 else 1

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head, sep, rest = line.partition(":")
        key = head.strip()
        if not sep:
            raise ParseError("expected 'gens:', 'weights:' or 'rel:'", lineno, 1)
        body_col = len(head) + 2
        if key == "gens":
            if gens is not None:
                raise ParseError(
                    f"duplicate 'gens:' line (first at line {gens_line})", lineno, 1
                )
            gens = rest.split()
            gens_line = lineno
            if not gens:
                raise ParseError("empty generator list", lineno, body_col)
            seen: set[str] = set()
            for tok in gens:
                if not TOKEN_RE.fullmatch(tok):
                    raise ParseError(
                        f"invalid generator token {tok!r}",
                        lineno,
                        token_col(raw, tok),
                    )
                if tok in seen:
                    raise ParseError(
                        f"duplicate generator token {tok!r}",
                        lineno,
                        token_col(raw, tok, start=raw.find(tok) + 1),
                    )
                seen.add(tok)
        elif key == "weights":
            if weights is not None:
                raise ParseError("duplicate 'weights:' line", lineno, 1)
            weights = {}
            for entry in rest.split():
                tok, eq, num = entry.partition("=")
                if not eq or not num:
                    raise ParseError(
                        f"expected tok=posint, got {entry!r}",
                        lineno,
                        token_col(raw, entry),
                    )
                try:
                    value = int(num)
                except ValueError:
                    raise ParseError(
                        f"bad weight {num!r}", lineno, token_col(raw, entry)
                    ) from None
                if value <= 0:
                    raise ParseError(
                        f"non-positive weight {value} for {tok!r}",
                        lineno,
                        token_col(raw, entry),
                    )
                if tok in weights:
                    raise ParseError(
                        f"duplicate weight for {tok!r}", lineno, token_col(raw, entry)
                    )
                weights[tok] = value
        elif key == "rel":
            lhs_text, eq, rhs_text = rest.partition("=")
            if not eq:
                raise ParseError("relation needs '='", lineno, body_col)
            lhs = lhs_text.split()
            rhs = rhs_text.split()
            if not lhs or not rhs:
                raise ParseError(
                    "empty relation side (write the empty word as '1')",
                    lineno,
                    body_col,
                )
            rel_specs.append((lhs, rhs))
            rel_positions.append((lineno, raw))
        else:
            raise ParseError(f"unknown directive {key!r}", lineno, 1)

    if gens is None:
        raise ParseError("missing 'gens:' line", 1, 1)

    known = set(gens)
    for (lhs, rhs), (lineno, raw) in zip(rel_specs, rel_positions):
        for side in (lhs, rhs):
            if side == [EPSILON_TOKEN]:
                continue
            for tok in side:
                if tok not in known:
                    raise ParseError(
                        f"unknown letter {tok!r} in relation",
                        lineno,
                        token_col(raw, tok),
                    )

    return make_presentation(gens, rel_specs, weights)


def format_presentation(p: Presentation) -> str:
    """Serialize back to the file format (inverse of parse_presentation)."""
    lines = ["gens: " + " ".join(p.letters)]
    if any(w != 1 for w in p.weights):
        entries = " ".join(
            f"{tok}={w}" for tok, w in zip(p.letters, p.weights) if w != 1
        )
        lines.append("weights: " + entries)
    for r in p.relations:
        lines.append(f"rel: {p.word_str(r.lhs)} = {p.word_str(r.rhs)}")
    return "\n".join(lines) + "\n"


def weight_of(p: Presentation, w: Word) -> int:
    """Weighted length of `w`; 0 for the empty word."""
    for i in w:
        if not 0 <= i < len(p.letters):
            raise PresentationError(f"unknown letter id {i}")
    return p.word_weight(w)


def mirror(p: Presentation) -> Presentation:
    """Letter-reverse every relation side.  An involution; right-reversing
    in the mirror corresponds to left-reversing of the reversed words."""
    rels = tuple(
        Relation(tuple(reversed(r.lhs)), tuple(reversed(r.rhs)), r.index)
        for r in p.relations
    )
    return Presentation(p.letters, rels, p.weights, p.duplicates_dropped)


def left_cancel_conflicts(p: Presentation) -> tuple[Relation, ...]:
    """Relations whose two sides begin with the same letter yet differ."""
    out = []
    for r in p.relations:
        if r.lhs and r.rhs and r.lhs[0] == r.rhs[0] and r.lhs != r.rhs:
            out.append(r)
    return tuple(out)


def is_right_complemented(p: Presentation) -> bool:
    """At most one relation `s... = t...` per unordered generator pair, and
    none with both sides starting with the same letter."""
    seen: set[frozenset[int]] = set()
    for r in p.relations:
        if not r.lhs or not r.rhs:
            return False
        s, t = r.lhs[0], r.rhs[0]
        if s == t:
            return False
        pair = frozenset((s, t))
        if pair in seen:
            return False
        seen.add(pair)
    return True


def validate(p: Presentation) -> list[Diagnostic]:
    """Report, without failing: ε-relations, weight-homogeneity status,
    left-cancellation conflicts, complementedness, dropped duplicates."""
    out: list[Diagnostic] = []
    for idx in p.epsilon_relations:
        out.append(
            Diagnostic(
                "epsilon-relation",
                "relation equates a nonempty word with the empty word; "
                "reversing-based procedures do not apply",
                relation_index=idx,
            )
        )
    if p.weight_homogeneous:
        out.append(
            Diagnostic(
                "weight-homogeneous",
                "all relations are weight-balanced; weighted length witnesses "
                "right noetherianity",
            )
        )
    else:
        unbalanced = [
            r.index
            for r in p.relations
            if p.word_weight(r.lhs) != p.word_weight(r.rhs)
        ]
        for idx in unbalanced:
            out.append(
                Diagnostic(
                    "not-weight-homogeneous",
                    "relation is not weight-balanced; no noetherianity witness",
                    relation_index=idx,
                )
            )
    for r in left_cancel_conflicts(p):
        out.append(
            Diagnostic(
                "left-cancel-conflict",
                "both sides begin with the same letter but differ",
                relation_index=r.index,
            )
        )
    if is_right_complemented(p):
        out.append(
            Diagnostic("right-complemented", "at most one relation per generator pair")
        )
    else:
        out.append(
            Diagnostic(
                "not-right-complemented",
                "some generator pair heads more than one relation "
                "(or a relation heads both sides with one letter)",
            )
        )
    if p.duplicates_dropped:
        out.append(
            Diagnostic(
                "duplicate-relations-dropped",
                f"{p.duplicates_dropped} duplicate relation(s) were dropped "
                "at construction",
            )
        )
    return out
