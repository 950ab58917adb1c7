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

A presentation compiles what the algorithms look up over and over: its
hash, its tile table (the tiles of each letter/letter grid cell) and its
rewrite index (the oriented relations with distinct sides).  Each is
built lazily from the presentation alone and never changes; none caches
a computed result.  They are not fields, so equality, `repr`, copies and
pickles ignore them, and a derived presentation compiles its own.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Sequence

Word = tuple[int, ...]

EPSILON: Word = ()

TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9_.^-]*")

# Spelling of the empty word in presentation files and on the command line.
EPSILON_TOKEN = "1"


class PresentationError(ValueError):
    """Malformed presentation (bad token, unknown letter, bad weight...).

    From `make_presentation`, `item` names the offending input: `("gens",
    i)` the i-th generator token (0 if there is none), `("weights", tok)`
    the weight given for tok, `("rel", r, side, k)` the k-th token of side
    0 (left) or 1 (right) of the r-th relation given.  Otherwise None.
    """

    def __init__(self, message: str, item: tuple | None = None) -> None:
        super().__init__(message)
        self.item = item


class ParseError(PresentationError):
    """Syntax error in a presentation file, with 1-based position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self._message = message
        self.line = line
        self.column = column

    def __reduce__(self):
        # `args` holds only the formatted message, so rebuild from the parts.
        return type(self), (self._message, self.line, self.column), self.__dict__


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


class TileKind(enum.Enum):
    RELATION = "relation"
    CANCEL = "cancel"
    PASS_LEFT = "pass_left"
    PASS_TOP = "pass_top"
    EMPTY = "empty"


@dataclass(frozen=True)
class Tile:
    kind: TileKind
    left: int | None
    top: int | None
    right: Word
    bottom: Word
    rel_index: int | None = None
    orientation: int | None = None

    def key(self) -> tuple:
        return (
            self.kind.value,
            -1 if self.left is None else self.left,
            -1 if self.top is None else self.top,
            self.right,
            self.bottom,
            -1 if self.rel_index is None else self.rel_index,
            -1 if self.orientation is None else self.orientation,
        )


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

    @cached_property
    def _hash(self) -> int:
        return hash((self.letters, self.relations, self.weights))

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self) -> dict:
        # Copies and pickles take the fields only: the compiled data is
        # rebuilt on demand, and a string hash holds in one process only.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def tile_table(self) -> dict[tuple[int, int], tuple[Tile, ...]]:
        """(s, t) -> the tiles of a cell with left letter s and top letter
        t: the cancellation tile when s = t, then one tile per oriented
        relation s... = t..., by relation index then orientation.  Pairs
        with no tile are absent."""
        table: dict[tuple[int, int], list[Tile]] = {
            (s, s): [Tile(TileKind.CANCEL, s, s, EPSILON, EPSILON)]
            for s in range(len(self.letters))
        }
        for rel in self.relations:
            for orientation, (side_s, side_t) in enumerate(
                ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs))
            ):
                if side_s and side_t:
                    s, t = side_s[0], side_t[0]
                    table.setdefault((s, t), []).append(
                        Tile(
                            TileKind.RELATION,
                            s,
                            t,
                            right=side_t[1:],
                            bottom=side_s[1:],
                            rel_index=rel.index,
                            orientation=orientation,
                        )
                    )
        return {pair: tuple(ts) for pair, ts in table.items()}

    @cached_property
    def rewrite_index(self) -> tuple[tuple[str, int, Word], ...]:
        """(text of src, length of src, dst) for every oriented relation
        src = dst with src != dst, by relation index then orientation; see
        `word_text`."""
        return tuple(
            (word_text(src), len(src), dst)
            for rel in self.relations
            for src, dst in ((rel.lhs, rel.rhs), (rel.rhs, rel.lhs))
            if src != dst
        )

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

    def check_letters(self, *words: Word) -> None:
        """Raise PresentationError unless every id in `words` is a letter."""
        for w in words:
            for i in w:
                if not 0 <= i < len(self.letters):
                    raise PresentationError(f"unknown letter id {i}")


def word_text(w: Word) -> str:
    """A word as a string with one character per letter, so that its
    factors can be found with the string methods."""
    return "".join(map(chr, w))


def make_presentation(
    letters: Sequence[str],
    relations: Iterable[tuple[Sequence[str] | str, Sequence[str] | str]],
    weights: dict[str, int] | None = None,
) -> Presentation:
    """Check and intern letters, resolve relation tokens, deduplicate relations.

    The only check of these rules, for files and library callers alike: at
    least one generator, each matching `TOKEN_RE`, none twice; each weight
    an `int` (not a `bool`), positive, on a known letter; each relation
    token a known letter.  A side is a token sequence or a string of
    whitespace-separated tokens; `1` alone spells the empty word.  A broken
    rule raises `PresentationError` with the offending `item`.

    Relations equal as unordered pairs (in either orientation) are dropped,
    keeping the first occurrence; the count of dropped duplicates is kept on
    the presentation so `validate` can report it.
    """
    letters_t = tuple(letters)
    if not letters_t:
        raise PresentationError("empty generator list", ("gens", 0))
    ids: dict[str, int] = {}
    for i, tok in enumerate(letters_t):
        if not isinstance(tok, str) or not TOKEN_RE.fullmatch(tok):
            raise PresentationError(f"invalid generator token {tok!r}", ("gens", i))
        if tok in ids:
            raise PresentationError(f"duplicate generator token {tok!r}", ("gens", i))
        ids[tok] = i

    weight_list = [1] * len(letters_t)
    for tok, w in (weights or {}).items():
        item = ("weights", tok)
        if tok not in ids:
            raise PresentationError(f"weight for unknown letter {tok!r}", item)
        if isinstance(w, bool) or not isinstance(w, int):
            raise PresentationError(f"non-int weight {w!r} for letter {tok!r}", item)
        if w <= 0:
            raise PresentationError(f"non-positive weight {w} for letter {tok!r}", item)
        weight_list[ids[tok]] = w

    def resolve(r: int, side_no: int, side: Sequence[str] | str) -> Word:
        tokens = side.split() if isinstance(side, str) else list(side)
        if tokens == [EPSILON_TOKEN]:
            return EPSILON
        out = []
        for t in tokens:
            if t not in ids:
                item = ("rel", r, side_no, len(out))
                raise PresentationError(f"unknown letter {t!r} in relation", item)
            out.append(ids[t])
        return tuple(out)

    rels: list[Relation] = []
    seen_pairs: set[frozenset[Word]] = set()
    dropped = 0
    for r, (lhs_raw, rhs_raw) in enumerate(relations):
        lhs, rhs = resolve(r, 0, lhs_raw), resolve(r, 1, rhs_raw)
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
      weights: <tok>=<int> ...       optional, at most once, each tok once
      rel: <toks> = <toks>           zero or more; an empty side is written `1`

    Only this syntax is checked here; `make_presentation` checks what was
    read, after it.  A `ParseError` gives the 1-based line and column of
    the offending token or entry (column 1 for a bad or repeated directive).
    """
    weights: dict[str, int] | None = None
    rels: list[tuple[str, str]] = []
    # (line, column, text) of each text read, keyed as an `item` minus its last part.
    at: dict[tuple, tuple[int, int, str]] = {}

    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        head, sep, rest = line.partition(":")
        key = head.strip()
        if not sep:
            raise ParseError("expected 'gens:', 'weights:' or 'rel:'", lineno, 1)
        col = len(head) + 2
        if key == "gens":
            if ("gens",) in at:
                first = at["gens",][0]
                raise ParseError(
                    f"duplicate 'gens:' line (first at line {first})", lineno, 1
                )
            at["gens",] = (lineno, col, rest)
        elif key == "weights":
            if weights is not None:
                raise ParseError("duplicate 'weights:' line", lineno, 1)
            weights, at["weights",] = {}, (lineno, col, rest)
            for m in re.finditer(r"\S+", rest):
                entry, entry_col = m.group(), col + m.start()
                tok, eq, num = entry.partition("=")
                if not eq or not num:
                    raise ParseError(
                        f"expected tok=posint, got {entry!r}", lineno, entry_col
                    )
                try:
                    value = int(num)
                except ValueError:
                    raise ParseError(f"bad weight {num!r}", lineno, entry_col) from None
                if tok in weights:
                    raise ParseError(f"duplicate weight for {tok!r}", lineno, entry_col)
                weights[tok] = value
        elif key == "rel":
            lhs, eq, rhs = rest.partition("=")
            if not eq:
                raise ParseError("relation needs '='", lineno, col)
            if not lhs.split() or not rhs.split():
                raise ParseError(
                    "empty relation side (write the empty word as '1')", lineno, col
                )
            at["rel", len(rels), 0] = (lineno, col, lhs)
            at["rel", len(rels), 1] = (lineno, col + len(lhs) + 1, rhs)
            rels.append((lhs, rhs))
        else:
            raise ParseError(f"unknown directive {key!r}", lineno, 1)

    if ("gens",) not in at:
        raise ParseError("missing 'gens:' line", 1, 1)
    try:
        return make_presentation(at["gens",][2].split(), rels, weights)
    except PresentationError as exc:
        *prefix, k = exc.item
        if prefix == ["weights"]:  # keys are distinct and in entry order
            k = list(weights).index(k)
        lineno, col, text = at[tuple(prefix)]
        starts = [m.start() for m in re.finditer(r"\S+", text)]
        column = col + (starts[k] if k < len(starts) else 0)
        raise ParseError(str(exc), lineno, column) from None


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
