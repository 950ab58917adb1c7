"""Per-layer tracing from outside the library.

`Tracer.install` wraps the functions in LAYERS and rebinds every name
under which a module of the package holds them (`completeness` imports
`reverse_enumerate` by name, the package re-exports most of them).  Each
call records a span (name, start, end, parent) in flat arrays kept in
memory; counters read arguments and return values after the span closes,
so their cost is not charged to the layer.  `metrics` derives calls, self
time (duration minus the time child spans cover) and the counters.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

LAYERS = [
    ("grids", "letter_tiles"),
    ("grids", "reverse_enumerate"),
    ("grids", "reverse_targets"),
    ("congruence", "rewrite_neighbors"),
    ("congruence", "class_distances"),
    ("congruence", "are_equivalent"),
    ("completeness", "check_diamond"),
    ("completeness", "decide_equiv_by_reversing"),
    ("cancellativity", "right_lcm"),
    ("cancellativity", "common_right_multiple"),
    ("core", "make_presentation"),
    ("core", "parse_presentation"),
    ("core", "mirror"),
    ("cli", "run"),
]

# Work counters: metric suffix and how to read it from (args, result).
COUNTERS = {
    "grids.letter_tiles": ("stuck", lambda args, res: int(not res)),
    "grids.reverse_enumerate": ("cells_out", lambda args, res: sum(g.cell_count for g in res.grids)),
    "grids.reverse_targets": ("targets_out", lambda args, res: len(res.targets)),
    "congruence.rewrite_neighbors": ("words_out", lambda args, res: len(res)),
}
DISTINCT = "congruence.class_distances"


def metric_names() -> list[str]:
    names = []
    for module, fn in LAYERS:
        key = f"{module}.{fn}"
        names += [f"{key}.calls", f"{key}.self_ms"]
        if key in COUNTERS:
            names.append(f"{key}.{COUNTERS[key][0]}")
    names.append(f"{DISTINCT}.distinct")
    return names


def package_modules():
    return [m for name, m in sys.modules.items() if name == "reversal" or name.startswith("reversal.")]


def rebind(original, replacement) -> list:
    """Point every package-module name bound to `original` at
    `replacement`; returns the bindings changed, for `unbind`."""
    changed = []
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                changed.append((module, attr, original))
    return changed


def unbind(changed: list) -> None:
    for module, attr, original in changed:
        setattr(module, attr, original)


class Tracer:
    def __init__(self) -> None:
        self.keys = [f"{module}.{fn}" for module, fn in LAYERS]
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.distinct: set = set()
        self.canonical: dict = {}
        self.changed: list = []

    def install(self) -> None:
        for nid, (module, fn) in enumerate(LAYERS):
            original = getattr(sys.modules[f"reversal.{module}"], fn)
            self.changed += rebind(original, self.wrap(nid, original))

    def uninstall(self) -> None:
        unbind(self.changed)
        self.changed = []

    def wrap(self, nid: int, fn):
        key = self.keys[nid]
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self.stack
        counter = COUNTERS.get(key)
        counts = self.counts
        clock = time.perf_counter
        note = self.note_class_key if key == DISTINCT else None

        def traced(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                counts[counter[0], nid] += counter[1](args, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def note_class_key(self, p, w, b=None) -> None:
        # Presentations compare by value, as the library's cache keys do;
        # the value key is built once per object, which is kept alive so
        # its id is not reused.
        entry = self.canonical.get(id(p))
        if entry is None:
            entry = self.canonical[id(p)] = (p, (p.letters, p.relations, p.weights))
        self.distinct.add((entry[1], w, b))

    @property
    def spans(self) -> int:
        return len(self.name)

    def metrics(self) -> dict[str, float]:
        n = len(self.name)
        covered = [0.0] * n
        self_s = [0.0] * len(LAYERS)
        calls = [0] * len(LAYERS)
        for i in range(n - 1, -1, -1):
            dur = self.end[i] - self.start[i]
            if self.parent[i] >= 0:
                covered[self.parent[i]] += dur
            self_s[self.name[i]] += dur - covered[i]
            calls[self.name[i]] += 1
        out: dict[str, float] = {}
        for nid, key in enumerate(self.keys):
            out[f"{key}.calls"] = calls[nid]
            out[f"{key}.self_ms"] = self_s[nid] * 1000
            if key in COUNTERS:
                out[f"{key}.{COUNTERS[key][0]}"] = self.counts[COUNTERS[key][0], nid]
        out[f"{DISTINCT}.distinct"] = len(self.distinct)
        return out
