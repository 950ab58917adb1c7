"""Cancellativity verdicts and common right multiples.

The cancellativity criterion is sufficient only: a monoid whose
presentation passes the completeness check and has no relation
s·w = s·w' with w ≠ w' is left cancellative.  When a hypothesis fails the
verdict is "not by this criterion", never a claim of non-cancellativity.
Right cancellativity is checked on the mirrored presentation, since left
reversing of (u, v) corresponds to right reversing of the reversed words.
Where reversing every relation gives back the same relation set, as in
the braid and colored braid monoids, the mirror's completeness check
carries its reports from the left side's cached run, if there is one,
instead of enumerating grids again (see `completeness`).

For a complete presentation, u and v admit a common right multiple iff
some grid from (u, v) exists, and u·v1 then right-divides every common
multiple; when the presentation is moreover right complemented the grid
is unique and u·v1 is a right lcm.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from .completeness import CompletenessReport, Verdict, check_completeness
from .congruence import Budget, DEFAULT_BUDGET
from .core import (
    Presentation,
    PresentationError,
    Relation,
    Word,
    is_right_complemented,
    left_cancel_conflicts,
)
from .grids import reverse_targets


class CancelStatus(enum.Enum):
    CANCELLATIVE = "cancellative"
    NOT_BY_THIS_CRITERION = "not-by-this-criterion"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CancellativityVerdict:
    side: str
    status: CancelStatus
    reason: str | None
    completeness: CompletenessReport
    conflicts: tuple[Relation, ...]


def check_left_cancellative(
    p: Presentation, b: Budget = DEFAULT_BUDGET
) -> CancellativityVerdict:
    report = check_completeness(p, b)
    conflicts = left_cancel_conflicts(p)
    if conflicts:
        status, reason = (
            CancelStatus.NOT_BY_THIS_CRITERION,
            "the presentation has relations s·w = s·w' with w, w' distinct",
        )
    elif report.verdict is Verdict.INCOMPLETE:
        status, reason = (
            CancelStatus.NOT_BY_THIS_CRITERION,
            "right reversing is not complete for the presentation",
        )
    elif report.verdict is Verdict.INCONCLUSIVE:
        status, reason = CancelStatus.INCONCLUSIVE, report.reason or (
            "completeness check was inconclusive"
        )
    else:
        status, reason = CancelStatus.CANCELLATIVE, None
    return CancellativityVerdict("left", status, reason, report, conflicts)


def check_right_cancellative(
    p: Presentation, b: Budget = DEFAULT_BUDGET
) -> CancellativityVerdict:
    """The left criterion on the mirrored presentation, relabelled."""
    verdict = check_left_cancellative(p.mirrored, b)
    return replace(verdict, side="right")


class MultipleKind(enum.Enum):
    LCM = "lcm"
    MULTIPLE = "multiple"
    NO_COMMON_MULTIPLE = "no-common-multiple"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class MultipleResult:
    kind: MultipleKind
    multiple: Word | None = None
    complements: tuple[Word, Word] | None = None
    stuck: tuple[tuple[int, int], ...] = ()
    reason: str | None = None


def common_right_multiple(
    p: Presentation, u: Word, v: Word, b: Budget = DEFAULT_BUDGET
) -> MultipleResult:
    """A common right multiple of u and v obtained by reversing, or a
    certified absence (complete enumeration got stuck everywhere)."""
    report = check_completeness(p, b)
    if report.verdict is not Verdict.COMPLETE:
        return MultipleResult(
            MultipleKind.INCONCLUSIVE,
            reason=f"completeness verdict is {report.verdict.value}; the "
            "common-multiple criterion does not apply",
        )
    return _by_reversing(
        p, u, v, b, MultipleKind.MULTIPLE, "reversing search exceeded the budget"
    )


def _by_reversing(
    p: Presentation, u: Word, v: Word, b: Budget, kind: MultipleKind, cut: str
) -> MultipleResult:
    """The multiple u·v1 for the least target (u1, v1) of (u, v), labelled
    `kind`; else a certified absence, or an inconclusive result giving
    `cut` as its reason."""
    search = reverse_targets(p, u, v, b)
    if search.targets:
        u1, v1 = min(search.targets)
        return MultipleResult(kind, multiple=u + v1, complements=(u1, v1))
    if search.complete:
        return MultipleResult(
            MultipleKind.NO_COMMON_MULTIPLE, stuck=tuple(sorted(search.stuck))
        )
    return MultipleResult(MultipleKind.INCONCLUSIVE, reason=cut)


def right_lcm(
    p: Presentation, u: Word, v: Word, b: Budget = DEFAULT_BUDGET
) -> MultipleResult:
    """Deterministic reversing in a complemented complete presentation:
    the target (u1, v1), when it exists, makes u·v1 a right lcm.

    The target comes from reversing u⁻¹v cell by cell, which stops at the
    first stuck cell, and from the memo search only when that takes over
    `b.max_cells` or 8·(|u| + |v| + 1)² cells; ε and pass cells cost
    nothing."""
    if not is_right_complemented(p):
        raise PresentationError("right_lcm requires a right-complemented presentation")
    report = check_completeness(p, b)
    if report.verdict is Verdict.INCOMPLETE:
        raise PresentationError(
            "right_lcm requires completeness of reversing, which fails here"
        )
    if report.verdict is Verdict.INCONCLUSIVE:
        return MultipleResult(
            MultipleKind.INCONCLUSIVE,
            reason=report.reason or "completeness check was inconclusive",
        )
    return _by_reversing(p, u, v, b, MultipleKind.LCM, "reversing exceeded the budget")
