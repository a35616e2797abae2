"""Steadiness check: run each workload with several seeds and compare spreads.

Run from the root of the repository:

    python3 perfbench/steadiness.py                       # every workload, seeds 1..10
    python3 perfbench/steadiness.py --workload density-trials --runs 5

For each end-to-end metric it prints the median of the runs and the
spread, the distance between the first and third quartile as a share of
the median, next to the metric's bound from BENCHMARK.json. A spread
below a third of the bound is marked ok. It also prints the share of
failed calls, which must be the same in every run. Runs are made one
after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    steady = True
    for workload in args.workload or names:
        results = [run_once(workload, seed, spec["run_seconds"])
                   for seed in range(1, args.runs + 1)]
        shares = {(r["failed"], r["attempted"]) for r in results}
        same_share = len({f / a for f, a in shares}) == 1
        correct = all(r["correct"] for r in results)
        steady &= same_share and correct
        print(f"{workload}: correct={correct} failed/attempted={sorted(shares)}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread < metric["bound"] / 3
            steady &= ok
            print(f"  {metric['name']:<14} median {median:12.6g} {metric['unit']:<4} "
                  f"spread {spread:7.4f} bound {metric['bound']:.2f} {'ok' if ok else 'WIDE'}  "
                  + " ".join(f"{v:.4g}" for v in values))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
