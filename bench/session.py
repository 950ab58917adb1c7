"""One workload in one fresh interpreter; started by run.py.

Set-up, timed rounds, checks, CLI runs, and either the end-to-end metrics
(untraced) or the per-layer metrics (traced).  The last line on standard
output is one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import io
import json
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracer
import workloads

SETUPS = 16
CLI_RUNS = 12
RESULTS = Path(__file__).resolve().parent / "results"
CLI_PROGRAM = "import sys; from reversal.cli import main; sys.argv[0] = 'reversal'; main()"


def setup(name: str, tally):
    """Import the package afresh and build every presentation the workload
    uses; returns (seconds, package, presentations)."""
    for mod in [m for m in sys.modules if m == "reversal" or m.startswith("reversal.")]:
        del sys.modules[mod]
    t0 = time.perf_counter()
    rv = importlib.import_module("reversal")
    built = workloads.build_presentations(rv, name)
    elapsed = time.perf_counter() - t0
    for key, (p, q) in built.items():
        # The file format does not record how many duplicates were dropped.
        if (p.letters, p.relations, p.weights) != (q.letters, q.relations, q.weights):
            tally.correct = False
            print(f"WRONG {key} does not survive format/parse", file=sys.stderr)
    return elapsed, rv, {key: p for key, (p, _) in built.items()}


def clear_caches(rv) -> None:
    """Drop the package's module-level caches, so each round does the same
    work from the same state."""
    for fn in (getattr(rv.congruence, "clear_caches", None),
               getattr(rv.completeness.check_completeness, "cache_clear", None)):
        if fn is not None:
            fn()


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, op, result, error) -> None:
        self.attempted += 1
        try:
            if error is not None:
                raise error
            op.check(result)
        except workloads.Inconclusive:
            self.failed += 1
        except workloads.Wrong as exc:
            self.failed += 1
            self.correct = False
            print(f"WRONG {op.label}: {exc}", file=sys.stderr)
        except Exception:
            self.failed += 1
            print(f"ERROR {op.label}:", file=sys.stderr)
            traceback.print_exc()


def run_round(ops, tally: Tally, between=None) -> tuple[float, list[float]]:
    """Time each op; check the answers after the last one.  Returns the
    round's time (the sum of its op latencies, so work done by `between`
    after each op is left out) and the latencies of its alike ops."""
    outcomes = []
    clock = time.perf_counter
    for op in ops:
        t0 = clock()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a raised error is a failed operation
            result, error = None, exc
        outcomes.append((op, result, error, clock() - t0))
        if between is not None:
            between()
    for op, result, error, _ in outcomes:
        tally.record(op, result, error)
    return sum(dt for *_, dt in outcomes), [dt for op, _, _, dt in outcomes if op.alike]


def time_calls(rv, module: str, fn: str, sink: list):
    """Record the duration of every call to `reversal.<module>.<fn>`."""
    original = getattr(getattr(rv, module), fn)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        t0 = clock()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(clock() - t0)

    return tracer.rebind(original, timed)


def check_cli(work, tally: Tally, code: int, stdout: str, where: str) -> None:
    try:
        workloads.expect(code == 0, f"exit code {code}")
        work.cli_check(json.loads(stdout))
    except (workloads.Wrong, ValueError, KeyError) as exc:
        tally.correct = False
        print(f"WRONG {where} {' '.join(work.cli_argv)}: {exc}", file=sys.stderr)


def cli_once(work, tally: Tally) -> float:
    """One CLI run in a subprocess, timed from process start to exit."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI_PROGRAM, *work.cli_argv],
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - t0
    check_cli(work, tally, proc.returncode, proc.stdout, "CLI")
    return elapsed


def cli_in_process(rv, work, tally: Tally) -> None:
    out = io.StringIO()
    code = rv.cli.run(work.cli_argv, out=out, err=io.StringIO())
    check_cli(work, tally, code, out.getvalue(), "in-process CLI")


class Spread:
    """Call `fn` `count` times, spaced evenly over `seconds`, when polled
    between operations: samples spread over the run are not all caught by
    one slow spell of the machine."""

    def __init__(self, fn, count: int, seconds: float, offset: float) -> None:
        self.fn = fn
        self.count = count
        self.spacing = seconds / count
        self.due = time.perf_counter() + offset * self.spacing
        self.values: list[float] = []

    def poll(self) -> None:
        if time.perf_counter() >= self.due and len(self.values) < self.count:
            self.values.append(self.fn())
            self.due += self.spacing

    def finish(self) -> list[float]:
        while len(self.values) < self.count:
            self.values.append(self.fn())
        return self.values


def untraced(work, rv, seconds: float, tally: Tally, setup_again) -> dict:
    walls, latencies = [], []
    sink: list[float] = []
    timed_calls = getattr(work, "timed_calls", None)
    changed = time_calls(rv, *timed_calls, sink) if timed_calls else []
    cli = Spread(lambda: cli_once(work, tally), CLI_RUNS, seconds, 0.0)
    setups = Spread(setup_again, SETUPS - 1, seconds, 0.5)

    def between():
        cli.poll()
        setups.poll()

    start = time.perf_counter()
    r = 0
    while True:
        ops = work.round_ops(r)
        clear_caches(rv)
        t0 = time.perf_counter()
        wall, lat = run_round(ops, tally, between)
        walls.append(wall)
        latencies += lat
        r += 1
        # Start another round only if it should end within the run.
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break
    tracer.unbind(changed)
    if timed_calls:
        latencies = sink
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pct = statistics.quantiles(latencies, n=100)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (pct[49] * 1000, "ms"),
        "op_p99_ms": (pct[98] * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "cli_s": (statistics.median(cli.finish()), "s"),
        "setups": setups.finish(),
        "rounds": r,
        "ops_timed": len(latencies),
    }


def traced(name, work, rv, seed: int, tally: Tally) -> dict:
    """Round 0 untraced, then the same round traced, then set-up and one
    in-process CLI call under the tracer."""
    importlib.import_module("reversal.cli")
    ops = work.round_ops(0)
    clear_caches(rv)
    plain_wall, _ = run_round(ops, tally)
    t = tracer.Tracer()
    t.install()
    try:
        clear_caches(rv)
        traced_wall, _ = run_round(ops, tally)
        workloads.build_presentations(rv, name)
        clear_caches(rv)
        cli_in_process(rv, work, tally)
    finally:
        t.uninstall()
    metrics = t.metrics()
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "spans": t.spans,
        "untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
        "per_layer": metrics,
    }, indent=1, sort_keys=True) + "\n")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", action="store_true")
    args = ap.parse_args()

    tally = Tally()
    first_setup, rv, pres = setup(args.workload, tally)
    work = workloads.WORKLOADS[args.workload](rv, pres, args.seed)

    if args.profile:
        ops = work.round_ops(0)
        clear_caches(rv)
        prof = cProfile.Profile()
        prof.runcall(run_round, ops, tally)
        pstats.Stats(prof, stream=sys.stdout).sort_stats("tottime").print_stats(15)
        return 0

    if args.trace:
        values = traced(args.workload, work, rv, args.seed, tally)
        metrics = {k: {"value": v, "unit": "ms" if k.endswith("_ms") else
                       "s" if k.endswith("_s") else "count"} for k, v in values.items()}
    else:
        # Later set-ups re-import the package under other names in
        # sys.modules; the workload keeps the modules of the first one.
        values = untraced(work, rv, args.seconds, tally,
                          lambda: setup(args.workload, tally)[0])
        values["setup_s"] = (statistics.median([first_setup] + values.pop("setups")), "s")
        print(f"# {args.workload}: {values.pop('rounds')} rounds, "
              f"{values.pop('ops_timed')} timed ops", file=sys.stderr)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
