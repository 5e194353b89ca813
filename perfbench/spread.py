"""Check how steady the end-to-end metrics are across seeds.

    python3 perfbench/spread.py --workloads train-stochastic --seeds 10

Runs ``perfbench/run.py`` once per seed and workload (untraced), then
prints each end-to-end metric's median and its interquartile distance as a
share of the median, next to the metric's bound.  A spread under a third
of the bound leaves room for run-to-run noise on the same code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END, WORKLOADS  # noqa: E402
from perfbench.stats import spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    steady = True
    for workload in args.workloads:
        results = [
            run_once(workload, seed, args.seconds)
            for seed in range(args.first_seed, args.first_seed + args.seeds)
        ]
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {len(results)} runs, {failed} failed operations")
        for name, unit, _, bound in END_TO_END:
            values = [r["metrics"][name]["value"] for r in results]
            share = spread(values)
            ok = name == "setup_s" or share <= bound / 3
            steady &= ok and failed == 0
            print(
                f"  {name:16s} median {statistics.median(values):10.4g} {unit:10s}"
                f" spread {share:6.3f} (bound {bound}){'' if ok else '  UNSTEADY'}"
            )
            print("    " + " ".join(f"{v:.4g}" for v in values))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
