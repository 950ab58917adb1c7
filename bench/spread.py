"""Run one workload on several seeds and print each metric's median and
spread, the distance between its quartiles as a share of its median.

    python3 bench/spread.py --workload deep-lcm --seeds 401-410
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, e.g. 401-410")
    ap.add_argument("--seconds", default="55")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    results = []
    for seed in range(first, last + 1):
        proc = subprocess.run([sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
                               "--seconds", args.seconds, "--trace", args.trace],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        line = proc.stdout.strip().splitlines()[-1]
        print(seed, line, flush=True)
        results.append(json.loads(line))

    print("correct", all(r["correct"] for r in results),
          "failed/attempted", sorted({(r["failed"], r["attempted"]) for r in results}))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:40s} median {median:.6g} spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
