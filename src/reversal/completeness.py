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
component: the rewrite distance read from the first word's cached class
map, else from the second's; infinite when a complete class shows the
words are not congruent, unknown when neither class map decides.  Two
grids match when both distances are finite.

The defect of a complete presentation is the worst, over all triples
(s, relation, grid), of the best total distance between the outputs of the
grid and of an equivalent grid from the other side, read from the same
distances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import lru_cache

from .congruence import Budget, DEFAULT_BUDGET, INFINITE, word_distance
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
    # For each source grid, the index of the first grid on the other side
    # whose targets are at finite distance (by w1's class map, then w2's);
    # None where no comparison matched.
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


def _target_distance(
    p: Presentation, g1: Grid, g2: Grid, b: Budget
) -> int | float | None:
    """dist(u1, u1') + dist(v1, v1') between the targets of g1 and g2;
    INFINITE or None as soon as one component is."""
    first = word_distance(p, g1.target[0], g2.target[0], b)
    if first is None or first is INFINITE:
        return first
    second = word_distance(p, g1.target[1], g2.target[1], b)
    if second is None or second is INFINITE:
        return second
    return first + second


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
            d = _target_distance(p, g, g2, b)
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
        s,
        rel,
        direction,
        status,
        src,
        dst,
        tuple(matching),
        witness=witness,
        exhausted=witness is not None,
        reason=reason,
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
        fwd = DiamondReport(
            s,
            rel,
            LHS_TO_RHS,
            DiamondStatus.INCONCLUSIVE,
            (),
            (),
            (),
            reason="grid enumeration exceeded the budget",
        )
        return fwd, replace(fwd, direction=RHS_TO_LHS)
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
            dmin: int | float = INFINITE
            dmin_grid: Grid | None = None
            for g2 in rep.dst_grids:
                d = _target_distance(p, g, g2, b)
                if d is None:
                    return DefectResult(None, None)
                if d < dmin:
                    dmin, dmin_grid = d, g2
            if dmin_grid is None:
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
