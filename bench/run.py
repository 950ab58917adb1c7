"""Benchmark entry point.

    python3 bench/run.py --workload diamond --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload deep-lcm --seed 1 --profile

Runs the workload in a fresh interpreter with PYTHONPATH=src and a fixed
PYTHONHASHSEED (the library iterates frozensets), waits for it, and
prints its result: the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170


def main() -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", action="store_true", help="print the cProfile top 15 of one round")
    args = ap.parse_args()

    if not (ROOT / "src" / "reversal" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.profile:
        cmd.append("--profile")
    # Its own process group, so a timeout also ends the CLI runs it starts.
    with subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True) as proc:
        try:
            return proc.wait(timeout=DEADLINE_S - (time.monotonic() - started))
        except subprocess.TimeoutExpired:
            print(f"error: workload did not finish within {DEADLINE_S} s", file=sys.stderr)
            return 3
        finally:  # also on an interrupt, which the new session does not receive
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


if __name__ == "__main__":
    sys.exit(main())
