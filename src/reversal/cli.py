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
from typing import Sequence, TextIO

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
    Verdict,
    check_completeness,
    completeness_to_json,
    defect,
    defect_to_json,
)
from .congruence import (
    Budget,
    EquivStatus,
    INFINITE,
    are_equivalent,
)
from .core import (
    Presentation,
    PresentationError,
    format_presentation,
    parse_presentation,
    validate,
)
from .grids import (
    grid_to_json,
    render_grid,
    reverse_enumerate,
    reverse_targets,
)

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
    if getattr(args, "file", None) and getattr(args, "catalog", None):
        raise _UsageError("give exactly one of --file and --catalog")
    if getattr(args, "file", None):
        with open(args.file, encoding="utf-8") as fh:
            return parse_presentation(fh.read())
    if getattr(args, "catalog", None):
        colors = _catalog.color_names(args.colors)
        return _catalog.build(args.catalog, args.n, colors)
    raise _UsageError("a presentation source is required (--file or --catalog)")


def _budget(args: argparse.Namespace) -> Budget:
    try:
        return Budget(**{f.name: getattr(args, f.name) for f in fields(Budget)})
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _emit(doc: dict, out: TextIO) -> None:
    out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _words_json(p: Presentation, pairs) -> list:
    return [[p.tokens(u1), p.tokens(v1)] for u1, v1 in pairs]


def _cmd_validate(args, p: Presentation, b: Budget, out: TextIO) -> int:
    diags = validate(p)
    ok = not p.epsilon_relations
    if args.json:
        _emit(
            {
                "ok": ok,
                "diagnostics": [
                    {
                        "kind": d.kind,
                        "message": d.message,
                        "relation_index": d.relation_index,
                    }
                    for d in diags
                ],
            },
            out,
        )
    else:
        for d in diags:
            where = f" (relation {d.relation_index})" if d.relation_index is not None else ""
            out.write(f"{d.kind}{where}: {d.message}\n")
    return EXIT_YES if ok else EXIT_NO


def _cmd_reverse(args, p: Presentation, b: Budget, out: TextIO) -> int:
    u, v = p.word(args.word1), p.word(args.word2)
    search = reverse_targets(p, u, v, b)
    targets = sorted(search.targets)
    if args.json:
        _emit(
            {
                "complete": search.complete,
                "targets": _words_json(p, targets),
                "stuck": [[p.letters[s], p.letters[t]] for s, t in sorted(search.stuck)],
            },
            out,
        )
    else:
        if targets:
            for u1, v1 in targets:
                out.write(f"({p.word_str(u1)}, {p.word_str(v1)})\n")
        else:
            out.write("no reversing target\n")
            for s, t in sorted(search.stuck):
                out.write(f"stuck at ({p.letters[s]}, {p.letters[t]})\n")
    if targets:
        return EXIT_YES
    return EXIT_NO if search.complete else EXIT_INCONCLUSIVE


def _cmd_grids(args, p: Presentation, b: Budget, out: TextIO) -> int:
    u, v = p.word(args.word1), p.word(args.word2)
    outcome = reverse_enumerate(p, u, v, b)
    if args.json:
        _emit(
            {
                "status": outcome.status.value,
                "grids": [grid_to_json(g) for g in outcome.grids],
                "stuck": [[p.letters[s], p.letters[t]] for s, t in outcome.stuck],
            },
            out,
        )
    else:
        out.write(f"{outcome.status.value}: {len(outcome.grids)} grid(s)\n")
        for i, g in enumerate(outcome.grids):
            out.write(
                f"\ngrid {i}: target ({p.word_str(g.target[0])}, "
                f"{p.word_str(g.target[1])}), {g.cell_count} cells\n"
            )
            out.write(render_grid(g) + "\n")
    if not outcome.completed:
        return EXIT_INCONCLUSIVE
    return EXIT_YES if outcome.grids else EXIT_NO


def _cmd_equiv(args, p: Presentation, b: Budget, out: TextIO) -> int:
    u, v = p.word(args.word1), p.word(args.word2)
    outcome = are_equivalent(p, u, v, b)
    if args.json:
        _emit(
            {
                "status": outcome.status.value,
                "distance": outcome.distance,
                "explored": outcome.explored,
            },
            out,
        )
    else:
        if outcome.status is EquivStatus.EQUIVALENT:
            out.write(f"equivalent, distance {outcome.distance}\n")
        else:
            out.write(outcome.status.value + "\n")
    if outcome.status is EquivStatus.EQUIVALENT:
        return EXIT_YES
    if outcome.status is EquivStatus.NOT_EQUIVALENT:
        return EXIT_NO
    return EXIT_INCONCLUSIVE


def _cmd_complete(args, p: Presentation, b: Budget, out: TextIO) -> int:
    report = check_completeness(p, b)
    if args.json:
        _emit(completeness_to_json(p, report), out)
    else:
        out.write(f"verdict: {report.verdict.value}\n")
        witness = report.witness
        if witness is not None:
            rel = witness.relation
            out.write(
                f"counterexample at generator {p.letters[witness.generator]}, "
                f"relation {p.word_str(rel.lhs)} = {p.word_str(rel.rhs)} "
                f"({witness.direction})\n"
            )
        if report.reason:
            out.write(report.reason + "\n")
    if report.verdict is Verdict.COMPLETE:
        return EXIT_YES
    if report.verdict is Verdict.INCOMPLETE:
        return EXIT_NO
    return EXIT_INCONCLUSIVE


def _cmd_cancel(args, p: Presentation, b: Budget, out: TextIO) -> int:
    left = check_left_cancellative(p, b)
    right = check_right_cancellative(p, b)

    def verdict_json(v) -> dict:
        return {
            "status": v.status.value,
            "reason": v.reason,
            "conflicts": [r.index for r in v.conflicts],
            "completeness": v.completeness.verdict.value,
        }

    if args.json:
        _emit(
            {
                "left": verdict_json(left),
                "right": verdict_json(right),
                "evidence": {
                    "left_pairs_checked": len(left.completeness.pairs),
                    "right_pairs_checked": len(right.completeness.pairs),
                },
            },
            out,
        )
    else:
        for v in (left, right):
            line = f"{v.side}: {v.status.value}"
            if v.reason:
                line += f" ({v.reason})"
            out.write(line + "\n")
    if (
        left.status is CancelStatus.CANCELLATIVE
        and right.status is CancelStatus.CANCELLATIVE
    ):
        return EXIT_YES
    return EXIT_INCONCLUSIVE


def _cmd_lcm(args, p: Presentation, b: Budget, out: TextIO) -> int:
    u, v = p.word(args.word1), p.word(args.word2)
    result = right_lcm(p, u, v, b)
    return _emit_multiple(args, p, result, out)


def _cmd_multiple(args, p: Presentation, b: Budget, out: TextIO) -> int:
    u, v = p.word(args.word1), p.word(args.word2)
    result = common_right_multiple(p, u, v, b)
    return _emit_multiple(args, p, result, out)


def _emit_multiple(args, p: Presentation, result, out: TextIO) -> int:
    if args.json:
        doc: dict = {"kind": result.kind.value}
        if result.multiple is not None:
            doc["multiple"] = p.tokens(result.multiple)
            doc["complements"] = [
                p.tokens(result.complements[0]),
                p.tokens(result.complements[1]),
            ]
        if result.stuck:
            doc["stuck"] = [[p.letters[s], p.letters[t]] for s, t in result.stuck]
        if result.reason:
            doc["reason"] = result.reason
        _emit(doc, out)
    else:
        if result.multiple is not None:
            out.write(f"{result.kind.value}: {p.word_str(result.multiple)}\n")
        elif result.kind is MultipleKind.NO_COMMON_MULTIPLE:
            out.write("no common right multiple\n")
        else:
            out.write(f"{result.kind.value}: {result.reason}\n")
    if result.kind in (MultipleKind.LCM, MultipleKind.MULTIPLE):
        return EXIT_YES
    if result.kind is MultipleKind.NO_COMMON_MULTIPLE:
        return EXIT_NO
    return EXIT_INCONCLUSIVE


def _cmd_defect(args, p: Presentation, b: Budget, out: TextIO) -> int:
    result = defect(p, b)
    if args.json:
        _emit(defect_to_json(p, result), out)
    else:
        if result.value is None:
            out.write("defect: budget exhausted\n")
        elif result.value == INFINITE:
            out.write("defect: infinite (presentation is not complete)\n")
        else:
            out.write(f"defect: {result.value}\n")
    if result.value is None:
        return EXIT_INCONCLUSIVE
    return EXIT_YES if result.value != INFINITE else EXIT_NO


def _cmd_catalog(args, out: TextIO) -> int:
    colors = _catalog.color_names(args.colors)
    entry = _catalog.entry(args.name, args.n, colors)
    p = entry.presentation
    if args.emit:
        out.write(format_presentation(p))
    elif args.json:
        _emit(
            {
                "name": entry.name,
                "n": entry.n,
                "colors": list(entry.colors) if entry.colors else None,
                "generators": list(p.letters),
                "relations": len(p.relations),
            },
            out,
        )
    else:
        out.write(
            f"{entry.name}: {len(p.letters)} generators, "
            f"{len(p.relations)} relations\n"
        )
    return EXIT_YES


_COMMANDS = {
    "validate": _cmd_validate,
    "reverse": _cmd_reverse,
    "grids": _cmd_grids,
    "equiv": _cmd_equiv,
    "complete": _cmd_complete,
    "cancel": _cmd_cancel,
    "lcm": _cmd_lcm,
    "multiple": _cmd_multiple,
    "defect": _cmd_defect,
}


def run(
    argv: Sequence[str],
    out: TextIO = sys.stdout,
    err: TextIO = sys.stderr,
) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.command == "catalog":
            return _cmd_catalog(args, out)
        p = _load_presentation(args)
        b = _budget(args)
        return _COMMANDS[args.command](args, p, b, out)
    except _UsageError as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (PresentationError, OSError) as exc:
        err.write(f"error: {exc}\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))
