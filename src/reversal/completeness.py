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

The defect of a complete presentation is the worst, over all triples
(s, relation, grid), of the best total distance between the outputs of the
grid and of an equivalent grid from the other side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from .congruence import (
    Budget,
    DEFAULT_BUDGET,
    INFINITE,
    class_distances,
)
from .core import Presentation, Relation, Word
from .grids import Grid, reverse_enumerate, reverse_targets

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
    # For each source grid, the index of the first target-equivalent grid
    # on the other side (None entries only in counterexamples).
    matching: tuple[int | None, ...]
    witness: Grid | None = None
    exhausted: bool = False
    reason: str | None = None


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


def _words_equivalent(
    p: Presentation, w1: Word, w2: Word, b: Budget
) -> bool | None:
    """Class-map based equivalence: reuses cached breadth-first closures,
    which pays off across the many comparisons of a diamond check."""
    if w1 == w2:
        return True
    dist, complete = class_distances(p, w1, b)
    if w2 in dist:
        return True
    if complete:
        return False
    dist2, complete2 = class_distances(p, w2, b)
    if w1 in dist2:
        return True
    if complete2:
        return False
    return None


def _targets_equivalent(
    p: Presentation, g1: Grid, g2: Grid, b: Budget
) -> bool | None:
    first = _words_equivalent(p, g1.target[0], g2.target[0], b)
    if first is not True:
        return first
    return _words_equivalent(p, g1.target[1], g2.target[1], b)


def _one_direction(
    p: Presentation,
    s: int,
    rel: Relation,
    direction: str,
    src: tuple[Grid, ...],
    dst: tuple[Grid, ...],
    b: Budget,
) -> DiamondReport:
    matching: list[int | None] = []
    witness: Grid | None = None
    undecided = False
    for g in src:
        found: int | None = None
        grid_undecided = False
        for j, g2 in enumerate(dst):
            eq = _targets_equivalent(p, g, g2, b)
            if eq is True:
                found = j
                break
            if eq is None:
                grid_undecided = True
        matching.append(found)
        if found is None:
            if grid_undecided:
                # No match found, but not every comparison was decided.
                undecided = True
            elif witness is None:
                witness = g
    if witness is None and undecided:
        return DiamondReport(
            s,
            rel,
            direction,
            DiamondStatus.INCONCLUSIVE,
            src,
            dst,
            tuple(matching),
            reason="oracle budget exhausted during matching",
        )
    if witness is not None:
        return DiamondReport(
            s,
            rel,
            direction,
            DiamondStatus.COUNTEREXAMPLE,
            src,
            dst,
            tuple(matching),
            witness=witness,
            exhausted=True,
        )
    return DiamondReport(
        s, rel, direction, DiamondStatus.VERIFIED, src, dst, tuple(matching)
    )


def check_diamond(
    p: Presentation, s: int, rel: Relation, b: Budget = DEFAULT_BUDGET
) -> tuple[DiamondReport, DiamondReport]:
    """Check the diamond condition for one generator and one relation, in
    both directions.  Any budget exhaustion downgrades to inconclusive
    rather than guessing."""
    out_l = reverse_enumerate(p, (s,), rel.lhs, b)
    out_r = reverse_enumerate(p, (s,), rel.rhs, b)
    if not out_l.completed or not out_r.completed:
        reason = "grid enumeration exceeded the budget"
        reports = []
        for direction in (LHS_TO_RHS, RHS_TO_LHS):
            reports.append(
                DiamondReport(
                    s,
                    rel,
                    direction,
                    DiamondStatus.INCONCLUSIVE,
                    (),
                    (),
                    (),
                    reason=reason,
                )
            )
        return (reports[0], reports[1])
    fwd = _one_direction(p, s, rel, LHS_TO_RHS, out_l.grids, out_r.grids, b)
    bwd = _one_direction(p, s, rel, RHS_TO_LHS, out_r.grids, out_l.grids, b)
    return (fwd, bwd)


@lru_cache(maxsize=32)
def check_completeness(
    p: Presentation, b: Budget = DEFAULT_BUDGET
) -> CompletenessReport:
    """Run the diamond checker over every (generator, relation) pair and
    aggregate.  Complete additionally requires the noetherianity witness:
    weight-homogeneity with positive integer weights."""
    if p.epsilon_relations:
        return CompletenessReport(
            Verdict.INCONCLUSIVE,
            (),
            noetherian_witness="absent",
            reason="presentation has ε-relations; reversing does not apply",
        )
    if not p.weight_homogeneous:
        return CompletenessReport(
            Verdict.INCONCLUSIVE,
            (),
            noetherian_witness="absent",
            reason="presentation is not weight-homogeneous; no integer "
            "noetherianity witness",
        )
    pairs: list[DiamondReport] = []
    for s in range(len(p.letters)):
        for rel in p.relations:
            fwd, bwd = check_diamond(p, s, rel, b)
            pairs.append(fwd)
            pairs.append(bwd)
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


def _output_distance(
    p: Presentation, g1: Grid, g2: Grid, b: Budget
) -> int | float | None:
    """dist(u1, u1') + dist(v1, v1') through cached class maps."""
    total = 0
    for w1, w2 in zip(g1.target, g2.target):
        if w1 == w2:
            continue
        dist, complete = class_distances(p, w1, b)
        if w2 in dist:
            total += dist[w2]
        elif complete:
            return INFINITE
        else:
            return None
    return total


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
        return DefectResult(
            INFINITE,
            DefectWitness(
                rep.generator, rep.relation, rep.direction, rep.witness, None, INFINITE
            ),
        )
    best_value: int | float = 0
    best_witness: DefectWitness | None = None
    for rep in report.pairs:
        for g in rep.src_grids:
            dmin: int | float | None = None
            dmin_grid: Grid | None = None
            for g2 in rep.dst_grids:
                d = _output_distance(p, g, g2, b)
                if d is None:
                    return DefectResult(None, None)
                if d is not INFINITE and (dmin is None or d < dmin):
                    dmin = d
                    dmin_grid = g2
            if dmin is None:
                # Contradicts the Complete verdict; report as infinite.
                return DefectResult(
                    INFINITE,
                    DefectWitness(
                        rep.generator, rep.relation, rep.direction, g, None, INFINITE
                    ),
                )
            if dmin > best_value or best_witness is None:
                best_value = dmin
                best_witness = DefectWitness(
                    rep.generator, rep.relation, rep.direction, g, dmin_grid, dmin
                )
    return DefectResult(best_value, best_witness)


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
