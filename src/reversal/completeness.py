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
class map once.

A run over all pairs checks one pair per orbit of the presentation's
automorphisms and carries its reports to the rest of the orbit.  Its
`DiamondContext.carrier` picks the one source it carries from: the
cached run over the presentation's mirror under the same budget, when
that run recorded any representative and the identity letter map
verifies as an isomorphism from the mirror onto the presentation, as in
the braid monoids (`Presentation.from_mirror`); else the presentation's
own orbits (`Presentation.orbits`), with the run's own record.  One
source is enough: σ and m∘σ keep class sizes and grid branches, and a
run records every representative except those that are inconclusive or
meet an incomplete class, so when the mirror run left a pair's preimage
unrecorded, the pair's own representative would be unrecorded too.  A
mirror record is empty when that run carried its pairs from its own
mirror's run, or recorded none.  The cached mirror run may be over an
equal copy of the mirror, which has the same orbits.  Both sources have
one format: letter maps, the identity (or m) first, and a table of every
pair -> (its representative, the index of the letter map carrying that
onto it).  A pair is carried when the source's record holds its
representative, and checked otherwise, as a representative of the run's
own orbits is: the run records it only once checked.  The letter maps
and table are compiled data of the presentation, plain ints; a run adds
its record and one `_Carrier`,
which every report it carries points at.  A carried report is a slotted
`DiamondReport` holding its generator, relation, direction and status
(and `exhausted` on a counterexample); the first read of its grids,
matching or witness carries both sides of its pair once
(`symmetry.carry`), for both reports, and matches them by their
preimages' class keys as `_one_direction` does (`_fill`).  The finished
run's context is the cache entry: the report, the run's record (the
reports and class keys of its recorded representatives), and its class
maps and class ids.  No run keeps a store of carried words.

The defect of a complete presentation is the worst, over all triples
(s, relation, grid), of the best total distance between the outputs of the
grid and of an equivalent grid from the other side, read from the same
distances.  A keyed grid is compared with the grids of its key only.  A
report carried from a fully keyed representative is skipped: σ keeps
distances, and the representative's reports come first, so they hold the
first maximum.  The defect reads no carried grid, and starts from copies
of its run's class maps and class ids: it builds no map the run built.
"""

from __future__ import annotations

import enum
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, fields, replace
from functools import cached_property, partial
from typing import Sequence

from .congruence import DEFAULT_BUDGET, INFINITE, Budget, ClassMap, class_distances, word_distance
from .core import Presentation, Relation, Word
from .grids import Grid, grid_to_json, reverse_enumerate, reverse_targets
from .symmetry import Pair, carry

# A run's record: each checked representative -> its two reports and the
# class keys of its two sides' grids.
Record = dict[Pair, tuple]

# A grid's class key: the ids of its two targets' classes, or None when a
# target's class map is incomplete.
ClassKey = tuple[int, int] | None

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


class _Carriable:
    __slots__ = ("_carried",)  # a carried report's `_Carrier`, until it is filled


@dataclass(frozen=True, slots=True)
class DiamondReport(_Carriable):
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
        # Reached only for a slot left unset, as on a carried report until
        # the first read of a field `_ON_READ` fills it (`_fill`).
        if name in _UNSET and (name != "witness" or not self.exhausted):
            return _UNSET[name]
        if name in _ON_READ:
            _fill(self)
        return object.__getattribute__(self, name)  # filled, or absent


def _report_state(report: DiamondReport) -> dict:
    # The fields in field order, as an eager report pickles and copies.
    return {f.name: getattr(report, f.name) for f in fields(report)}


def _set_report_state(report: DiamondReport, state: dict) -> None:
    for name, value in state.items():
        object.__setattr__(report, name, value)


# Set after the class: on Python 3.10, `dataclass` replaces a frozen slotted
# class's own pair with one that pickles a list.
DiamondReport.__getstate__, DiamondReport.__setstate__ = _report_state, _set_report_state

# A carried report holds generator, relation, direction, status (and
# exhausted on a counterexample) at once; the first read of a field
# `_ON_READ` fills the rest.  Until then the fields `_UNSET` read their
# defaults, and witness reads its default only on a report that is no
# counterexample.
_ON_READ = ("src_grids", "dst_grids", "matching", "witness")
_UNSET = {"witness": None, "exhausted": False, "reason": None}
_FILLING = threading.Lock()
_set_generator, _set_relation, _set_direction, _set_status, _set_exhausted, _set_carried = (
    getattr(DiamondReport, name).__set__
    for name in ("generator", "relation", "direction", "status", "exhausted", "_carried")
)


# What one run carries reports with: its presentation p, its source (the
# letter maps, the table of every pair and the record, as
# `DiamondContext.carrier` picks them), and `built`, the two sides of each
# pair that one of its reports has carried and the other has not yet read.
# Every report the run carries points at it until filled.
_Carrier = namedtuple("_Carrier", "p maps table record built")


def _fill(report: DiamondReport) -> None:
    """Fill the fields a carried report leaves unset.  The first report of
    its pair to be read carries both sides of the representative through
    σ, in trace order and with their preimages' class keys; both reports
    are matched by those keys, as `_one_direction` matches keyed grids."""
    with _FILLING:
        try:
            carrier = report._carried
        except AttributeError:  # filled meanwhile
            return
        s, rel = report.generator, report.relation
        pair = (s, rel.index)
        sides = carrier.built.pop(pair, None)  # the pair's other report is filled
        if sides is None:
            rep, i = carrier.table[pair]
            sigma, images = carrier.maps[i]
            (fwd, _), keys = carrier.record[rep]
            flip = images[rep[1]][1]  # 1 when σ maps its lhs onto rel's rhs
            sides = []
            for k, side in enumerate((rel.lhs, rel.rhs)):
                preimages = (fwd.src_grids, fwd.dst_grids)[k ^ flip]
                grids, order = carry(carrier.p, sigma, images, preimages, ((s,), side))
                sides.append((grids, tuple(map(keys[k ^ flip].__getitem__, order))))
            carrier.built[pair] = sides
        (src, src_keys), (dst, dst_keys) = sides[::-1] if report.direction == RHS_TO_LHS else sides
        filled = _one_direction(None, s, rel, report.direction, src, dst, src_keys, dst_keys)
        for name in (*_ON_READ, "exhausted", "reason"):
            object.__setattr__(report, name, getattr(filled, name))
        object.__delattr__(report, "_carried")


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


def _one_direction(
    context: DiamondContext | None,
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
    equal key; for one without, by comparing distances (the only use of
    `context`)."""
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


class DiamondContext:
    """What the diamond checks of one run over a presentation share: the
    class maps and class ids, the `carrier` it carries reports with, and
    the grids of the representatives checked so far.  The finished run,
    with its report and without its carrier, is the cache entry."""

    def __init__(self, p: Presentation, b: Budget) -> None:
        self.p = p
        self.b = b
        self.class_maps: dict[Word, ClassMap] = {}
        # Word -> id of its complete class, or None when its class map is
        # incomplete.
        self.class_ids: dict[Word, int | None] = {}
        self.classes = 0
        self.representatives: Record = {}
        self.report: CompletenessReport | None = None  # once the run is done

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
    def carrier(self) -> _Carrier:
        """The run's one `_Carrier`: from the cached run over p's mirror
        under b, if its record is not empty and `p.from_mirror` carries it
        onto p; else from p's own orbits, with the run's own record."""
        p = self.p
        record = _RUNS.peek(p.mirrored, self.b)
        if record and p.from_mirror is not None:
            return _Carrier(p, *p.from_mirror, record, {})
        return _Carrier(p, *p.orbits, self.representatives, {})

    def transported(
        self, s: int, rel: Relation
    ) -> tuple[DiamondReport, DiamondReport] | None:
        """The reports of (s, rel) carried over from a checked
        representative, when the record of the run's source holds the
        representative its table gives for the pair; else None, and the
        pair must be checked itself.  A representative of the run's own
        orbits is its own, and the run records it only once checked; a
        pair of no generator of p, which the table does not list, is its
        own too, so checking it raises as it does without a context.

        σ keeps congruence, so two carried grids have congruent targets
        exactly when their preimages' class keys are equal; each carried
        grid keeps its preimage's key.  So the pair's reports hold their
        representative's statuses at once, and are filled on first read
        (`_fill`)."""
        carrier = self.carrier
        pair = (s, rel.index)
        rep, i = carrier.table.get(pair, (pair, 0))
        data = carrier.record.get(rep)
        if data is None:
            return None
        reports = data[0]
        flip = carrier.maps[i][1][rep[1]][1]  # 1 when σ maps the lhs side onto rel's rhs side
        out = (object.__new__(DiamondReport), object.__new__(DiamondReport))
        for k, report in enumerate(out):
            r = reports[k ^ flip]
            _set_generator(report, s)
            _set_relation(report, rel)
            _set_direction(report, RHS_TO_LHS if k else LHS_TO_RHS)
            _set_status(report, r.status)
            _set_carried(report, carrier)
            if r.exhausted:  # a counterexample
                _set_exhausted(report, True)
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
    `context` (as `check_completeness` does), a pair whose representative
    was checked, by this run or by the cached run over p's mirror, gets
    that representative's reports carried over by a letter map; the
    reports are the same either way."""
    if context is None:
        context = DiamondContext(p, b)
    elif context.p is not p or (context.b is not b and context.b != b):
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
    weight-homogeneity with positive integer weights.

    The last 32 runs are cached, one per (presentation, budget), however
    the budget is passed: each entry is the finished run, with its
    report, representatives and class maps.  A run may carry pairs from
    the cached run over p's mirror, as the module docstring says;
    reading that entry counts neither a hit nor a miss.
    `check_completeness.cache_clear()` drops every entry, and
    `check_completeness.cache_info()` counts as `lru_cache` does."""
    return _RUNS.run(p, b).report


def _check_completeness(p: Presentation, b: Budget) -> DiamondContext:
    """A run over p: its context, holding the report, without its carrier."""
    run = DiamondContext(p, b)
    if p.epsilon_relations or not p.weight_homogeneous:
        reason = (
            "presentation has ε-relations; reversing does not apply"
            if p.epsilon_relations
            else "presentation is not weight-homogeneous; no integer "
            "noetherianity witness"
        )
        run.report = CompletenessReport(Verdict.INCONCLUSIVE, (), "absent", reason)
        return run
    pairs: list[DiamondReport] = []
    for s in range(len(p.letters)):
        for rel in p.relations:
            pairs += check_diamond(p, s, rel, b, run)
    statuses = [rep.status for rep in pairs]  # `in` finds enum members by identity
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
    run.report = CompletenessReport(verdict, tuple(pairs), witness_text)
    vars(run).pop("carrier", None)  # only the run itself carries with it
    return run


CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Runs:
    """The cache of `check_completeness`: (presentation, budget) -> the
    finished run's `DiamondContext`, never written once stored (of two
    concurrent runs of one key, the first stored is kept and returned);
    the least recently used entry is dropped first past `maxsize`."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.lock = threading.Lock()
        self.entries: OrderedDict[tuple[Presentation, Budget], DiamondContext] = OrderedDict()
        self.hits = self.misses = 0

    def run(self, p: Presentation, b: Budget) -> DiamondContext:
        key = (p, b)
        with self.lock:
            run = self.entries.get(key)
            if run is not None:
                self.entries.move_to_end(key)
                self.hits += 1
                return run
            self.misses += 1
        run = _check_completeness(p, b)
        with self.lock:
            run = self.entries.setdefault(key, run)
            self.entries.move_to_end(key)
            if len(self.entries) > self.maxsize:
                self.entries.popitem(last=False)
        return run

    def peek(self, p: Presentation, b: Budget) -> Record | None:
        """The representatives of the cached run over (p, b), if any;
        counted as neither hit nor miss, and not a use."""
        with self.lock:
            run = self.entries.get((p, b))
        return None if run is None else run.representatives

    def cache_clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.hits = self.misses = 0

    def cache_info(self) -> CacheInfo:
        with self.lock:
            return CacheInfo(self.hits, self.misses, self.maxsize, len(self.entries))


_RUNS = _Runs(maxsize=32)
check_completeness.cache_clear = _RUNS.cache_clear  # type: ignore[attr-defined]
check_completeness.cache_info = _RUNS.cache_info  # type: ignore[attr-defined]


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
    run = _RUNS.run(p, b)
    report = run.report
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
    context = DiamondContext(p, b)  # from copies of the run's maps: the run is never written
    context.class_maps, context.class_ids = dict(run.class_maps), dict(run.class_ids)
    context.classes = run.classes
    keyed: dict[Pair, bool] = {}  # scanned pair -> whether its grids all have keys
    best: DefectWitness | None = None
    for rep in report.pairs:
        pair = (rep.generator, rep.relation.index)
        origin = p.orbits[1][pair][0]
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
