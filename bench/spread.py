"""Run one workload on several seeds and print each metric's spread.

    python3 bench/spread.py --workload map-change --seeds 101-110

Each run is a separate `bench/run.py` process with its default run length,
one after another. For every metric it prints the median over the runs, the
quartiles from `statistics.quantiles(values, n=4)` and their distance as a
share of the median; these are the spreads the README records.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="FIRST-LAST")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    runs = []
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(seed)],
            capture_output=True, text=True, check=False,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result.update(seed=seed, wall_s=time.perf_counter() - start)
        runs.append(result)
    print(f"{args.workload}: {len(runs)} runs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"correct {all(r['correct'] for r in runs)}, "
          f"failed/attempted {sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}, "
          f"longest run {max(r['wall_s'] for r in runs):.1f} s")
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median if median else 0.0
        print(f"  {name:<36} median {median:12.4f} {metric['unit']:<6} "
              f"quartiles {q1:.4f} {q3:.4f}  spread {share:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
