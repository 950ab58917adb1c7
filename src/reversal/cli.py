"""Command-line front end: every decision procedure, JSON or text output.

Exit codes: 0 for a decided affirmative (Complete, Cancellative,
Equivalent, a multiple/lcm found...), 1 for a decided negative, 2 for an
inconclusive outcome (budget or inapplicable criterion), 64 for usage,
parse, and precondition errors.  JSON mode prints exactly one document
with sorted keys, so outputs are byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from typing import Iterable, Iterator, Sequence, TextIO

from . import catalog as _catalog
from .cancellativity import (
    CancelStatus,
    MultipleKind,
    check_left_cancellative,
    check_right_cancellative,
    common_right_multiple,
    right_lcm,
)
from .completeness import (
    CompletenessReport,
    DiamondStatus,
    Verdict,
    check_completeness,
    completeness_to_json,
    defect,
    defect_to_json,
)
from .congruence import INFINITE, Budget, EquivStatus, are_equivalent
from .core import (
    Presentation,
    PresentationError,
    format_presentation,
    parse_presentation,
    validate,
)
from .grids import grid_to_json, render_grid, reverse_enumerate, reverse_targets

EXIT_YES = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


_BUDGET_HELP = {
    "max_cells": "grid cells per branch where grids are enumerated (grids, "
    "complete, cancel, defect, and the completeness check of lcm and "
    "multiple); reversing steps in the target search of reverse, lcm "
    "and multiple",
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="reversal", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser, words: int = 0) -> None:
        src = sp.add_argument_group("presentation source")
        src.add_argument("--file", help="presentation file path")
        src.add_argument("--catalog", help="catalog entry name")
        src.add_argument("--n", type=int, default=4, help="strand count (catalog)")
        src.add_argument(
            "--colors", type=int, default=2, help="color count (catalog)"
        )
        bud = sp.add_argument_group("budget")
        for field in fields(Budget):
            bud.add_argument(
                "--" + field.name.replace("_", "-"),
                type=int,
                default=field.default,
                help=_BUDGET_HELP.get(field.name),
            )
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        for i in range(words):
            sp.add_argument(f"word{i + 1}" if words > 1 else "word")

    add_common(sub.add_parser("validate", help="report presentation diagnostics"))
    add_common(sub.add_parser("reverse", help="targets of reversing (u, v)"), words=2)
    add_common(sub.add_parser("grids", help="enumerate all grids from (u, v)"), words=2)
    add_common(sub.add_parser("equiv", help="congruence oracle on (u, v)"), words=2)
    add_common(sub.add_parser("complete", help="completeness of right reversing"))
    add_common(sub.add_parser("cancel", help="cancellativity criterion, both sides"))
    add_common(sub.add_parser("lcm", help="right lcm (complemented presentations)"), words=2)
    add_common(sub.add_parser("multiple", help="common right multiple of (u, v)"), words=2)
    add_common(sub.add_parser("defect", help="defect of a complete presentation"))
    cat = sub.add_parser("catalog", help="inspect or emit a catalog presentation")
    cat.add_argument("name")
    cat.add_argument("--n", type=int, default=4)
    cat.add_argument("--colors", type=int, default=2)
    cat.add_argument("--emit", action="store_true", help="print the presentation file")
    cat.add_argument("--json", action="store_true")
    return parser


def _load_presentation(args: argparse.Namespace) -> Presentation:
    if args.file and args.catalog:
        raise _UsageError("give exactly one of --file and --catalog")
    if args.file:
        with open(args.file, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _UsageError(
                f"{args.file}: not valid UTF-8 at byte offset {exc.start}"
            ) from exc
        return parse_presentation(text)
    if args.catalog:
        colors = _catalog.color_names(args.colors)
        return _catalog.build(args.catalog, args.n, colors)
    raise _UsageError("a presentation source is required (--file or --catalog)")


def _budget(args: argparse.Namespace) -> Budget:
    try:
        return Budget(**{f.name: getattr(args, f.name) for f in fields(Budget)})
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


# A command computes its result once and returns (answer, document,
# lines): True for a decided yes, False for a decided no, None otherwise;
# then the JSON document and the text lines, two renderings of the one
# result.  Costly lines come from a generator, so JSON mode never builds
# them.  `run` writes one rendering and maps the answer to the exit code.
_Result = tuple[bool | None, dict | None, Iterable[str]]


def _letter_pairs(p: Presentation, pairs) -> list:
    return [[p.letters[s], p.letters[t]] for s, t in pairs]


def _cmd_validate(args, p: Presentation, b: Budget) -> _Result:
    diags = validate(p)
    ok = not p.epsilon_relations
    doc = {
        "ok": ok,
        "diagnostics": [
            {"kind": d.kind, "message": d.message, "relation_index": d.relation_index}
            for d in diags
        ],
    }
    lines = []
    for d in diags:
        where = "" if d.relation_index is None else f" (relation {d.relation_index})"
        lines.append(f"{d.kind}{where}: {d.message}")
    return ok, doc, lines


# Why a target search without a target was cut short, and what to raise.
_CUT_TEXT = {
    "max_cells": "the search ran out of reversing steps (raise --max-cells)",
    "max_grids": "a subproblem had too many targets (raise --max-grids)",
    "cycle": "the search met a cyclic subproblem (no budget flag helps)",
}


def _first_inconclusive(
    p: Presentation, report: CompletenessReport, label: str = "first inconclusive pair"
) -> list[str]:
    """A line naming the first inconclusive pair of `report` and its
    reason; none when no pair is inconclusive."""
    for rep in report.pairs:
        if rep.status is DiamondStatus.INCONCLUSIVE:
            rel = rep.relation
            return [
                f"{label}: generator "
                f"{p.letters[rep.generator]}, relation {rel.index} "
                f"({p.word_str(rel.lhs)} = {p.word_str(rel.rhs)}), "
                f"{rep.direction}: {rep.reason}"
            ]
    return []


def _cmd_reverse(args, p: Presentation, b: Budget) -> _Result:
    search = reverse_targets(p, p.word(args.word1), p.word(args.word2), b)
    targets, stuck = sorted(search.targets), sorted(search.stuck)
    doc = {
        "complete": search.complete,
        "targets": [[p.tokens(u1), p.tokens(v1)] for u1, v1 in targets],
        "stuck": _letter_pairs(p, stuck),
    }
    if targets:
        answer = True
        lines = [f"({p.word_str(u1)}, {p.word_str(v1)})" for u1, v1 in targets]
    else:
        answer = False if search.complete else None
        why = "" if search.cut is None else f" found: {_CUT_TEXT[search.cut]}"
        lines = [f"no reversing target{why}"]
        lines += [f"stuck at ({p.letters[s]}, {p.letters[t]})" for s, t in stuck]
    return answer, doc, lines


def _cmd_grids(args, p: Presentation, b: Budget) -> _Result:
    outcome = reverse_enumerate(p, p.word(args.word1), p.word(args.word2), b)
    doc = {
        "status": outcome.status.value,
        "grids": [grid_to_json(g) for g in outcome.grids],
        "stuck": _letter_pairs(p, outcome.stuck),
    }

    def lines() -> Iterator[str]:
        yield f"{outcome.status.value}: {len(outcome.grids)} grid(s)"
        for i, g in enumerate(outcome.grids):
            yield ""
            yield (
                f"grid {i}: target ({p.word_str(g.target[0])}, "
                f"{p.word_str(g.target[1])}), {g.cell_count} cells"
            )
            yield render_grid(g)

    answer = bool(outcome.grids) if outcome.completed else None
    return answer, doc, lines()


def _cmd_equiv(args, p: Presentation, b: Budget) -> _Result:
    outcome = are_equivalent(p, p.word(args.word1), p.word(args.word2), b)
    doc = {
        "status": outcome.status.value,
        "distance": outcome.distance,
        "explored": outcome.explored,
    }
    line = outcome.status.value
    if outcome.status is EquivStatus.EQUIVALENT:
        line = f"equivalent, distance {outcome.distance}"
    answer = {EquivStatus.EQUIVALENT: True, EquivStatus.NOT_EQUIVALENT: False}
    return answer.get(outcome.status), doc, [line]


def _cmd_complete(args, p: Presentation, b: Budget) -> _Result:
    report = check_completeness(p, b)
    lines = [f"verdict: {report.verdict.value}"]
    witness = report.witness
    if witness is not None:
        rel = witness.relation
        lines.append(
            f"counterexample at generator {p.letters[witness.generator]}, "
            f"relation {p.word_str(rel.lhs)} = {p.word_str(rel.rhs)} "
            f"({witness.direction})"
        )
    if report.reason:
        lines.append(report.reason)
    if report.verdict is Verdict.INCONCLUSIVE:
        lines += _first_inconclusive(p, report)
    answer = {Verdict.COMPLETE: True, Verdict.INCOMPLETE: False}
    return answer.get(report.verdict), completeness_to_json(p, report), lines


def _cmd_cancel(args, p: Presentation, b: Budget) -> _Result:
    left = check_left_cancellative(p, b)
    right = check_right_cancellative(p, b)

    def verdict_json(v) -> dict:
        return {
            "status": v.status.value,
            "reason": v.reason,
            "conflicts": [r.index for r in v.conflicts],
            "completeness": v.completeness.verdict.value,
        }

    doc = {
        "left": verdict_json(left),
        "right": verdict_json(right),
        "evidence": {
            "left_pairs_checked": len(left.completeness.pairs),
            "right_pairs_checked": len(right.completeness.pairs),
        },
    }
    lines = []
    for v in (left, right):
        reason = f" ({v.reason})" if v.reason else ""
        lines.append(f"{v.side}: {v.status.value}{reason}")
        if v.status is CancelStatus.INCONCLUSIVE:
            # The right side is checked on the mirrored presentation.
            where = " of the mirror" if v.side == "right" else ""
            lines += _first_inconclusive(
                p, v.completeness, f"  first inconclusive pair{where}"
            )
    # The criterion proves cancellativity; it never refutes it.
    both = left.status is right.status is CancelStatus.CANCELLATIVE
    return (True if both else None), doc, lines


def _cmd_multiple(args, p: Presentation, b: Budget) -> _Result:
    """`lcm` and `multiple`, by `right_lcm` or `common_right_multiple`."""
    find = right_lcm if args.command == "lcm" else common_right_multiple
    result = find(p, p.word(args.word1), p.word(args.word2), b)
    doc: dict = {"kind": result.kind.value}
    if result.multiple is not None:
        doc["multiple"] = p.tokens(result.multiple)
        doc["complements"] = [p.tokens(w) for w in result.complements]
        answer, line = True, f"{result.kind.value}: {p.word_str(result.multiple)}"
    elif result.kind is MultipleKind.NO_COMMON_MULTIPLE:
        answer, line = False, "no common right multiple"
    else:
        answer, line = None, f"{result.kind.value}: {result.reason}"
    if result.stuck:
        doc["stuck"] = _letter_pairs(p, result.stuck)
    if result.reason:
        doc["reason"] = result.reason
    return answer, doc, [line]


def _cmd_defect(args, p: Presentation, b: Budget) -> _Result:
    result = defect(p, b)
    if result.value is None:
        answer, line = None, "defect: budget exhausted"
    elif result.value == INFINITE:
        answer, line = False, "defect: infinite (presentation is not complete)"
    else:
        answer, line = True, f"defect: {result.value}"
    return answer, defect_to_json(p, result), [line]


def _cmd_catalog(args) -> _Result:
    colors = _catalog.color_names(args.colors)
    entry = _catalog.entry(args.name, args.n, colors)
    p = entry.presentation
    if args.emit:
        # The presentation file is the only rendering, also with --json.
        return True, None, format_presentation(p).splitlines()
    doc = {
        "name": entry.name,
        "n": entry.n,
        "colors": list(entry.colors) if entry.colors else None,
        "generators": list(p.letters),
        "relations": len(p.relations),
    }
    line = f"{entry.name}: {len(p.letters)} generators, {len(p.relations)} relations"
    return True, doc, [line]


_COMMANDS = {
    "validate": _cmd_validate,
    "reverse": _cmd_reverse,
    "grids": _cmd_grids,
    "equiv": _cmd_equiv,
    "complete": _cmd_complete,
    "cancel": _cmd_cancel,
    "lcm": _cmd_multiple,
    "multiple": _cmd_multiple,
    "defect": _cmd_defect,
}

_EXIT = {True: EXIT_YES, False: EXIT_NO, None: EXIT_INCONCLUSIVE}


def run(
    argv: Sequence[str],
    out: TextIO = sys.stdout,
    err: TextIO = sys.stderr,
) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
        if args.command == "catalog":
            answer, doc, lines = _cmd_catalog(args)
        else:
            command = _COMMANDS[args.command]
            answer, doc, lines = command(args, _load_presentation(args), _budget(args))
        if args.json and doc is not None:
            out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        else:
            for line in lines:
                out.write(line + "\n")
    except (_UsageError, PresentationError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    return _EXIT[answer]


def main() -> None:
    sys.exit(run(sys.argv[1:]))
