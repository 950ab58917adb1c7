"""Completeness of right reversing: the diamond condition, its verdict,
reversing as an equivalence test, and the defect of a presentation.

The diamond condition asks, for every generator s and every relation
w = w', that each grid from (s, w) admits an equivalent grid from (s, w')
and vice versa, where grids are equivalent when their edge words are
congruent componentwise.  Here both grids share the left edge s and have
congruent top edges by assumption, so only the targets need comparing.
Together with a noetherianity witness (weight-homogeneity with positive
weights), verified diamonds imply that (u, v) reverses to (ε, ε) exactly
when u ≡ v.

Targets are compared by one rule, `congruence.word_distance` on each
component: the rewrite distance read from the first word's class map,
else from the second's; infinite when a complete class shows the words
are not congruent, unknown when neither class map decides.  Two grids
match when both distances are finite.  Where both target classes of a
grid are complete, that is the same as equal class keys: each complete
class gets an id once per run, and a grid is keyed by the ids of its two
targets' classes.  A grid with an incomplete class is compared by
distances, grid by grid.  A run's `DiamondContext` computes each word's
class map once and drops them all when the run ends.

A run over all pairs checks one pair per symmetry orbit.  An automorphism
σ of the presentation (a weight-preserving letter permutation mapping the
relation set onto itself) maps the grids from (s, w) one-to-one onto the
grids from (σs, σw) and keeps congruence, so it maps the diamond reports
of a pair onto those of its image.  The first pair of each orbit is
checked; every other pair gets its reports by carrying the
representative's grids through a verified σ, re-sorting them by trace as
`reverse_enumerate` does, and matching them by the preimages' class keys.
The re-sort is needed: an image cell may list its tiles in the tile table
in another order than their keys, so carried grids do not keep their
order.  A carried report holds its status at once, and a counterexample
its witness, found by keys and carried alone; it builds its grids and
matching the first time they are read, and the verdict reads statuses
only.  An orbit whose representative is inconclusive or meets an
incomplete class is checked pair by pair.  The automorphisms come from
`symmetry`.

The defect of a complete presentation is the worst, over all triples
(s, relation, grid), of the best total distance between the outputs of the
grid and of an equivalent grid from the other side, read from the same
distances.  A keyed grid is compared with the grids of its key only.  A
report carried from a fully keyed representative is skipped: σ keeps
distances, and the representative's reports come first, so they hold the
first maximum.  The defect reads no carried grid.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache, partial
from typing import Sequence

from .congruence import (
    Budget,
    DEFAULT_BUDGET,
    INFINITE,
    ClassMap,
    class_distances,
    word_distance,
)
from .core import Presentation, Relation, Tile, Word
from .grids import Grid, reverse_enumerate, reverse_targets, tiles

LHS_TO_RHS = "lhs->rhs"
RHS_TO_LHS = "rhs->lhs"


class DiamondStatus(enum.Enum):
    VERIFIED = "verified"
    COUNTEREXAMPLE = "counterexample"
    INCONCLUSIVE = "inconclusive"


class Verdict(enum.Enum):
    COMPLETE = "complete"
    INCOMPLETE = "incomplete"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class DiamondReport:
    generator: int
    relation: Relation
    direction: str
    status: DiamondStatus
    src_grids: tuple[Grid, ...]
    dst_grids: tuple[Grid, ...]
    # For each source grid, the index of the first grid on the other side
    # whose targets are at finite distance (by w1's class map, then w2's);
    # None where no comparison matched.
    matching: tuple[int | None, ...]
    witness: Grid | None = None
    exhausted: bool = False
    reason: str | None = None

    def __getattr__(self, name: str):
        # Reached only for an attribute not set: see `_Carried`.
        carried = None if name == "_carried" else getattr(self, "_carried", None)
        if carried is None or name not in carried.on_read:
            return object.__getattribute__(self, name)  # set meanwhile, or absent
        backward = self.direction == RHS_TO_LHS
        object.__setattr__(self, name, carried.field(name, backward))
        if None not in carried.sides:  # the rest costs nothing more: drop the record
            for n in carried.on_read:
                object.__setattr__(self, n, carried.field(n, backward))
            vars(self).pop("_carried", None)
        return object.__getattribute__(self, name)

    def __getstate__(self) -> dict:
        # The fields in field order, as an eager report pickles and copies.
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class CompletenessReport:
    verdict: Verdict
    pairs: tuple[DiamondReport, ...]
    noetherian_witness: str
    reason: str | None = None

    @property
    def witness(self) -> DiamondReport | None:
        for rep in self.pairs:
            if rep.status is DiamondStatus.COUNTEREXAMPLE:
                return rep
        return None


# A grid's class key: the ids of its two targets' classes, or None when a
# target's class map is incomplete.
ClassKey = tuple[int, int] | None


def _one_direction(
    context: DiamondContext,
    s: int,
    rel: Relation,
    direction: str,
    src: tuple[Grid, ...],
    dst: tuple[Grid, ...],
    src_keys: Sequence[ClassKey],
    dst_keys: Sequence[ClassKey],
) -> DiamondReport:
    """Match each source grid with the first grid of `dst` whose targets
    are at finite distance: for a keyed source grid, the first with an
    equal key; for one without, by comparing distances."""
    first = {key: j for j, key in reversed(list(enumerate(dst_keys)))}
    matching: list[int | None] = []
    witness: Grid | None = None
    undecided = False
    for g, key in zip(src, src_keys):
        found: int | None = None
        grid_undecided = False
        if key is not None:
            found = first.get(key)
        else:
            for j, g2 in enumerate(dst):
                d = context.target_distance(g, g2)
                if d is None:
                    grid_undecided = True
                elif d is not INFINITE:
                    found = j
                    break
        matching.append(found)
        if found is None:
            if grid_undecided:
                # No match found, but not every comparison was decided.
                undecided = True
            elif witness is None:
                witness = g
    reason = None
    if witness is not None:
        status = DiamondStatus.COUNTEREXAMPLE
    elif undecided:
        status = DiamondStatus.INCONCLUSIVE
        reason = "oracle budget exhausted during matching"
    else:
        status = DiamondStatus.VERIFIED
    return DiamondReport(
        s, rel, direction, status, src, dst, tuple(matching),
        witness=witness, exhausted=witness is not None, reason=reason,
    )


Pair = tuple[int, int]  # (generator, relation index)


_TileIndex = tuple[list[Tile], dict[int, int], dict[tuple[int, int], Tile]]


def _tile_index(p: Presentation) -> _TileIndex:
    """Every tile a grid of p can hold (the tile table and the forced
    tiles of ε cells); each one's rank by `Tile.key`, by id, so that tuples
    of ranks sort as `Grid.trace_key` does; and the relation tiles by
    (relation index, orientation)."""
    all_tiles = [t for ts in p.tile_table.values() for t in ts]
    all_tiles += tiles(p, None, None)
    for x in range(len(p.letters)):
        all_tiles += tiles(p, x, None) + tiles(p, None, x)
    ranked = sorted(all_tiles, key=Tile.key)
    ranks = {id(t): r for r, t in enumerate(ranked)}
    by_relation = {
        (t.rel_index, t.orientation): t for t in all_tiles if t.rel_index is not None
    }
    return all_tiles, ranks, by_relation


@dataclass(eq=False, repr=False)
class Symmetry:
    """One verified automorphism σ of p, and how it carries pairs and
    grids.  Carried target words are kept once each in `words`, which the
    symmetries of one run share: many grids have the same targets."""

    p: Presentation
    sigma: tuple[int, ...]
    # Per relation: (index of its image, 1 if σ maps lhs to its rhs).
    images: tuple[tuple[int, int], ...]
    tile_index: _TileIndex
    words: dict[Word, Word]

    def word(self, w: Word) -> Word:
        image = tuple(map(self.sigma.__getitem__, w))
        return self.words.setdefault(image, image)

    @cached_property
    def tile_maps(self) -> tuple[dict[int, Tile], dict[int, int]]:
        """id of each tile of p -> its image, and -> its image's rank."""
        p, sigma = self.p, self.sigma
        all_tiles, ranks, by_relation = self.tile_index
        image_of: dict[int, Tile] = {}
        for t in all_tiles:
            if t.rel_index is not None:
                index, flip = self.images[t.rel_index]
                image = by_relation[index, t.orientation ^ flip]
            else:  # a cancellation or forced tile, the only one of its cell
                left = None if t.left is None else sigma[t.left]
                top = None if t.top is None else sigma[t.top]
                image = tiles(p, left, top)[0]
            image_of[id(t)] = image
        rank_of = {i: ranks[id(image)] for i, image in image_of.items()}
        return image_of, rank_of

    def pair(self, pair: Pair) -> tuple[int, int, int]:
        """The image (generator, relation index) of `pair`, and 1 when σ
        maps the relation's lhs onto the image's rhs."""
        s, rel_index = pair
        index, flip = self.images[rel_index]
        return self.sigma[s], index, flip

    def rank(self, g: Grid) -> tuple[int, ...]:
        """The ranks of the image's tiles: images sort by it as by trace."""
        return tuple(map(self.tile_maps[1].__getitem__, map(id, g.cells)))

    def grid(self, g: Grid, source: tuple[Word, Word]) -> Grid:
        """The image of g, from `source`."""
        cells = tuple(map(self.tile_maps[0].__getitem__, map(id, g.cells)))
        return Grid(self.p.letters, source, tuple(map(self.word, g.target)), cells)

    def grids(
        self, grids: tuple[Grid, ...], source: tuple[Word, Word]
    ) -> tuple[tuple[Grid, ...], list[int]]:
        """The images of `grids`, all from `source`, in trace order, and the
        index of each one's preimage."""
        order = sorted(range(len(grids)), key=lambda i: self.rank(grids[i]))
        return tuple(self.grid(grids[i], source) for i in order), order


def symmetries(p: Presentation) -> list[Symmetry]:
    """The automorphisms of p other than the identity that pass the
    verifier, sharing one store of carried words."""
    from .symmetry import automorphism_relations  # see Presentation.automorphisms

    identity = tuple(range(len(p.letters)))
    verified = []
    for sigma in p.automorphisms:
        images = automorphism_relations(p, sigma)
        if images is not None and tuple(sigma) != identity:
            verified.append((tuple(sigma), images))
    index = _tile_index(p) if verified else None
    words: dict[Word, Word] = {}
    return [Symmetry(p, sigma, images, index, words) for sigma, images in verified]


def orbits(
    p: Presentation, syms: Sequence[Symmetry]
) -> dict[Pair, tuple[Pair, Symmetry]]:
    """(generator, relation index) -> (its representative, a symmetry
    mapping the representative onto it), for every pair that is not a
    representative.  A representative is the first pair of its orbit in
    checking order: by generator, then relation."""
    out: dict[Pair, tuple[Pair, Symmetry]] = {}
    seen: set[Pair] = set()
    for s in range(len(p.letters)):
        for rel in p.relations:
            rep = (s, rel.index)
            if rep in seen:
                continue
            seen.add(rep)
            for sym in syms:
                image = sym.pair(rep)[:2]
                if image not in seen:
                    seen.add(image)
                    out[image] = (rep, sym)
    return out


class _Carried:
    """A carried pair: σ, its representative's grids and class keys (sides
    swapped already where σ swaps them) and its witnesses.  The pair's two
    reports share it and build their grids on first read; no class map."""

    __slots__ = ("sym", "s", "rel", "grids", "keys", "known", "sides")
    on_read = ("src_grids", "dst_grids", "matching")  # the report fields it builds
    lock = threading.Lock()

    def __init__(self, sym: Symmetry, s: int, rel: Relation, grids: tuple, keys: tuple):
        self.sym, self.s, self.rel, self.grids, self.keys = sym, s, rel, grids, keys
        self.known: list[tuple[int, Grid] | None] | None = None  # per side
        self.sides: list[tuple | None] = [None, None]

    def witness(self, k: int) -> Grid:
        """The counterexample from side k (0 lhs, 1 rhs): of the preimages
        whose key has no equal on the other side, the image first in trace
        order; carried alone and kept for the side."""
        grids, others, rank = self.grids[k], set(self.keys[1 - k]), self.sym.rank
        unmatched = (i for i, key in enumerate(self.keys[k]) if key not in others)
        i = min(unmatched, key=lambda i: rank(grids[i]))
        source = ((self.s,), (self.rel.lhs, self.rel.rhs)[k])
        self.known = self.known or [None, None]
        self.known[k] = (i, self.sym.grid(grids[i], source))
        return self.known[k][1]

    def side(self, k: int) -> tuple[tuple[Grid, ...], tuple[ClassKey, ...]]:
        """The images of side k's grids in trace order, and their keys, each
        its preimage's; built once, around the side's witness if it has one."""
        with self.lock:
            if self.sides[k] is None:
                known = self.known and self.known[k]
                source = ((self.s,), (self.rel.lhs, self.rel.rhs)[k])
                if known:  # one source per side: the witness's
                    source = known[1].source
                grids, order = self.sym.grids(self.grids[k], source)
                if known:  # and the witness is the side's grid
                    grids = tuple(known[1] if i == known[0] else g for i, g in zip(order, grids))
                self.sides[k] = (grids, tuple(map(self.keys[k].__getitem__, order)))
                if None not in self.sides:  # σ and the preimages are done with
                    self.sym = self.grids = self.keys = self.known = None
            return self.sides[k]

    def field(self, name: str, backward: bool) -> tuple:
        """Field `name` of the lhs->rhs report, or the rhs->lhs one if
        `backward`.  Matching is by key: a recorded pair's grids all have one."""
        if name != "matching":
            return self.side(backward ^ (name == "dst_grids"))[0]
        (_, src_keys), (_, dst_keys) = self.side(backward), self.side(not backward)
        first = {key: j for j, key in reversed(list(enumerate(dst_keys)))}
        return tuple(map(first.get, src_keys))


class DiamondContext:
    """What the diamond checks of one run over a presentation share: the
    class maps and class ids, the orbits of (generator, relation) pairs,
    and the grids of the representatives checked so far.  It lives as long
    as the run, and no class map outlives it."""

    def __init__(self, p: Presentation, b: Budget) -> None:
        self.p = p
        self.b = b
        self.class_maps: dict[Word, ClassMap] = {}
        # Word -> id of its complete class, or None when its class map is
        # incomplete.
        self.class_ids: dict[Word, int | None] = {}
        self.classes = 0
        # (generator, relation index) of a checked representative -> its
        # two reports and the class keys of its two sides' grids.
        self.representatives: dict[tuple[int, int], tuple] = {}

    def class_map(self, w: Word) -> ClassMap:
        entry = self.class_maps.get(w)
        if entry is None:
            entry = self.class_maps[w] = class_distances(self.p, w, self.b)
        return entry

    def target_distance(self, g1: Grid, g2: Grid) -> int | float | None:
        """dist(u1, u1') + dist(v1, v1') between the targets of g1 and g2;
        INFINITE or None as soon as one component is."""
        first = word_distance(g1.target[0], g2.target[0], self.class_map)
        if first is None or first is INFINITE:
            return first
        second = word_distance(g1.target[1], g2.target[1], self.class_map)
        if second is None or second is INFINITE:
            return second
        return first + second

    def class_id(self, w: Word) -> int | None:
        if w in self.class_ids:
            return self.class_ids[w]
        dist, complete = self.class_map(w)
        if not complete:
            self.class_ids[w] = None
            return None
        self.classes += 1
        self.class_ids.update(dict.fromkeys(dist, self.classes))
        return self.classes

    def class_key(self, g: Grid) -> ClassKey:
        first = self.class_id(g.target[0])
        if first is None:
            return None
        second = self.class_id(g.target[1])
        return None if second is None else (first, second)

    @cached_property
    def orbits(self) -> dict[Pair, tuple[Pair, Symmetry]]:
        """Every pair that is not its orbit's representative -> (the
        representative, a verified symmetry mapping it onto the pair)."""
        return orbits(self.p, symmetries(self.p))

    def transported(
        self, s: int, rel: Relation
    ) -> tuple[DiamondReport, DiamondReport] | None:
        """The reports of (s, rel) carried over from its orbit's checked
        representative, or None when the pair must be checked itself.

        σ keeps congruence, so two carried grids have congruent targets
        exactly when their preimages' class keys are equal; each carried
        grid keeps its preimage's key.  So the pair's reports hold their
        representative's statuses and a counterexample's witness at once,
        and build their grids and matching on first read."""
        entry = self.orbits.get((s, rel.index))
        data = None if entry is None else self.representatives.get(entry[0])
        if data is None:
            return None
        (rep, sym), (reports, keys) = entry, data
        grids = (reports[0].src_grids, reports[0].dst_grids)
        if sym.pair(rep)[2]:  # σ maps the lhs side onto rel's rhs side
            reports, grids, keys = reports[::-1], grids[::-1], keys[::-1]
        carried = _Carried(sym, s, rel, grids, keys)
        out = (object.__new__(DiamondReport), object.__new__(DiamondReport))
        put = object.__setattr__
        for k, (report, r) in enumerate(zip(out, reports)):
            put(report, "generator", s)
            put(report, "relation", rel)
            put(report, "direction", RHS_TO_LHS if k else LHS_TO_RHS)
            put(report, "status", r.status)
            put(report, "witness", None if r.witness is None else carried.witness(k))
            put(report, "exhausted", r.exhausted)
            put(report, "reason", r.reason)
            put(report, "_carried", carried)
        return out

    def record(
        self,
        s: int,
        rel: Relation,
        reports: tuple[DiamondReport, DiamondReport],
        keys: tuple[tuple[ClassKey, ...], tuple[ClassKey, ...]],
    ) -> None:
        """Keep a checked pair's reports and class keys for transport,
        unless a report is inconclusive or a class map incomplete."""
        if any(rep.status is DiamondStatus.INCONCLUSIVE for rep in reports):
            return
        if None in keys[0] or None in keys[1]:
            return
        self.representatives[s, rel.index] = (reports, keys)


def check_diamond(
    p: Presentation,
    s: int,
    rel: Relation,
    b: Budget = DEFAULT_BUDGET,
    context: DiamondContext | None = None,
) -> tuple[DiamondReport, DiamondReport]:
    """Check the diamond condition for one generator and one relation, in
    both directions.  Any budget exhaustion downgrades to inconclusive
    rather than guessing.

    Alone, the pair is checked directly.  Within a run that shares a
    `context` (as `check_completeness` does), a pair whose orbit
    representative was checked gets that representative's reports carried
    over by a symmetry; the reports are the same either way."""
    if context is None:
        context = DiamondContext(p, b)
    elif context.p is not p or context.b != b:
        raise ValueError("the context belongs to another presentation or budget")
    else:
        reports = context.transported(s, rel)
        if reports is not None:
            return reports
    out_l = reverse_enumerate(p, (s,), rel.lhs, b)
    out_r = reverse_enumerate(p, (s,), rel.rhs, b)
    if not out_l.completed or not out_r.completed:
        fwd = DiamondReport(
            s, rel, LHS_TO_RHS, DiamondStatus.INCONCLUSIVE, (), (), (),
            reason="grid enumeration exceeded the budget",
        )
        return fwd, replace(fwd, direction=RHS_TO_LHS)
    grids = (out_l.grids, out_r.grids)
    keys = tuple(tuple(map(context.class_key, side)) for side in grids)
    fwd = _one_direction(context, s, rel, LHS_TO_RHS, *grids, *keys)
    bwd = _one_direction(context, s, rel, RHS_TO_LHS, *grids[::-1], *keys[::-1])
    context.record(s, rel, (fwd, bwd), keys)
    return fwd, bwd


def check_completeness(
    p: Presentation, b: Budget = DEFAULT_BUDGET
) -> CompletenessReport:
    """Run the diamond checker over every (generator, relation) pair and
    aggregate.  Complete additionally requires the noetherianity witness:
    weight-homogeneity with positive integer weights.  The last 32 reports
    are cached, one per (presentation, budget), however the budget is
    passed; `check_completeness.cache_clear()` drops them."""
    return _check_completeness(p, b)


@lru_cache(maxsize=32)
def _check_completeness(p: Presentation, b: Budget) -> CompletenessReport:
    if p.epsilon_relations or not p.weight_homogeneous:
        reason = (
            "presentation has ε-relations; reversing does not apply"
            if p.epsilon_relations
            else "presentation is not weight-homogeneous; no integer "
            "noetherianity witness"
        )
        return CompletenessReport(Verdict.INCONCLUSIVE, (), "absent", reason)
    pairs: list[DiamondReport] = []
    context = DiamondContext(p, b)
    for s in range(len(p.letters)):
        for rel in p.relations:
            pairs += check_diamond(p, s, rel, b, context)
    statuses = {rep.status for rep in pairs}
    if DiamondStatus.COUNTEREXAMPLE in statuses:
        verdict = Verdict.INCOMPLETE
    elif DiamondStatus.INCONCLUSIVE in statuses:
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.COMPLETE
    witness_text = (
        "weight-homogeneous with positive generator weights; "
        "the weighted length witnesses right noetherianity"
    )
    return CompletenessReport(verdict, tuple(pairs), witness_text)


check_completeness.cache_clear = _check_completeness.cache_clear  # type: ignore[attr-defined]
check_completeness.cache_info = _check_completeness.cache_info  # type: ignore[attr-defined]


def decide_equiv_by_reversing(
    p: Presentation, u: Word, v: Word, b: Budget = DEFAULT_BUDGET
) -> bool | None:
    """True iff some grid from (u, v) has target (ε, ε); None when the
    search was cut by the budget without finding one.  Meaningful as an
    equivalence decision only for presentations whose completeness check
    returned Complete."""
    search = reverse_targets(p, u, v, b)
    if ((), ()) in search.targets:
        return True
    if search.complete:
        return False
    return None


@dataclass(frozen=True)
class DefectWitness:
    generator: int
    relation: Relation
    direction: str
    grid: Grid
    matched: Grid | None
    distance: int | float | None


@dataclass(frozen=True)
class DefectResult:
    value: int | float | None
    witness: DefectWitness | None

    @property
    def is_budget_limited(self) -> bool:
        return self.value is None


def _report_defect(
    context: DiamondContext, rep: DiamondReport
) -> tuple[DefectWitness | None, bool] | DefectResult:
    """One report's part of the defect: its first source grid farthest from
    the other side, with that grid's first nearest partner (None without
    source grids), and whether the other side's grids are all keyed; or the
    defect itself, if it ends here.  A keyed grid is compared only with the
    grids of its key: the others are at infinite distance."""
    by_key: dict[ClassKey, list[Grid]] = {}
    for g2 in rep.dst_grids:
        by_key.setdefault(context.class_key(g2), []).append(g2)
    where = partial(DefectWitness, rep.generator, rep.relation, rep.direction)
    best: DefectWitness | None = None
    for g in rep.src_grids:
        key = context.class_key(g)
        dmin: int | float = INFINITE
        partner: Grid | None = None
        for g2 in rep.dst_grids if key is None else by_key.get(key, ()):
            d = context.target_distance(g, g2)
            if d is None:
                return DefectResult(None, None)
            if d < dmin:
                dmin, partner = d, g2
        if partner is None:  # contradicts the Complete verdict; report as infinite
            return DefectResult(INFINITE, where(g, None, INFINITE))
        if best is None or dmin > best.distance:
            best = where(g, partner, dmin)
    return best, None not in by_key


def defect(p: Presentation, b: Budget = DEFAULT_BUDGET) -> DefectResult:
    """Max over (generator, relation, grid) of the min distance sum to an
    equivalent grid on the relation's other side; INFINITE when the
    presentation is not complete, None on budget exhaustion."""
    report = check_completeness(p, b)
    if report.verdict is Verdict.INCONCLUSIVE:
        return DefectResult(None, None)
    if report.verdict is Verdict.INCOMPLETE:
        rep = report.witness
        if rep is None:  # an incomplete verdict always has a counterexample
            raise RuntimeError("incomplete verdict without a counterexample")
        where = (rep.generator, rep.relation, rep.direction, rep.witness)
        return DefectResult(INFINITE, DefectWitness(*where, None, INFINITE))
    # σ keeps distances, so a report carried from a representative whose
    # grids all have keys has the value of one of the representative's
    # reports, which come first: it is skipped, and its grids are not read.
    context = DiamondContext(p, b)
    keyed: dict[Pair, bool] = {}  # scanned pair -> whether its grids all have keys
    best: DefectWitness | None = None
    for rep in report.pairs:
        pair = (rep.generator, rep.relation.index)
        origin = context.orbits.get(pair, (pair,))[0]
        if origin != pair and keyed[origin]:
            continue
        scan = _report_defect(context, rep)
        if isinstance(scan, DefectResult):
            return scan
        found, all_keyed = scan
        keyed[pair] = keyed.get(pair, True) and all_keyed
        if found is not None and (best is None or found.distance > best.distance):
            best = found
    return DefectResult(0 if best is None else best.distance, best)


# ---------------------------------------------------------------------------
# JSON views.
# ---------------------------------------------------------------------------


def diamond_to_json(p: Presentation, rep: DiamondReport) -> dict:
    from .grids import grid_to_json

    doc: dict = {
        "generator": p.letters[rep.generator],
        "relation_index": rep.relation.index,
        "direction": rep.direction,
        "status": rep.status.value,
    }
    if rep.witness is not None:
        doc["witness"] = grid_to_json(rep.witness)
    if rep.reason:
        doc["reason"] = rep.reason
    return doc


def completeness_to_json(p: Presentation, report: CompletenessReport) -> dict:
    return {
        "verdict": report.verdict.value,
        "noetherian_witness": report.noetherian_witness,
        "reason": report.reason,
        "pairs": [diamond_to_json(p, rep) for rep in report.pairs],
    }


def defect_to_json(p: Presentation, result: DefectResult) -> dict:
    from .grids import grid_to_json

    if result.value is None:
        value: object = None
    elif result.value == INFINITE:
        value = "infinite"
    else:
        value = result.value
    doc: dict = {"value": value}
    if result.witness is not None and result.witness.grid is not None:
        doc["witness"] = {
            "generator": p.letters[result.witness.generator],
            "relation_index": result.witness.relation.index,
            "direction": result.witness.direction,
            "grid": grid_to_json(result.witness.grid),
        }
    return doc
