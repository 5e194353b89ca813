"""Run one benchmark workload; the last stdout line is its JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics of a timed, untraced run.
``--trace 1`` prints the per-layer metrics of a fixed-size run made twice
from the same seed, untraced and traced (see ``perfbench/README.md``).
``--workload all`` runs every workload in both modes and prints a summary.
Run it from the repository root; it reads the program from ``src/``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import BLAS_THREAD_VARS, BLAS_THREADS  # noqa: E402

# Pin BLAS threads before anything imports NumPy.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from perfbench import serve, stream, train
    from perfbench.outcome import Outcome

    out = Outcome()
    if name in train.REGIMES:
        if trace:
            train.run_traced(name, seed, out)
        else:
            train.run_untraced(name, seed, seconds, out)
    elif name == "stream-drift":
        (stream.run_traced if trace else stream.run_untraced)(seed, seconds, out)
    elif name == "serve-openloop":
        (serve.run_traced if trace else serve.run_untraced)(seed, seconds, out)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return out


def report(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload, print its lines, return its result object."""
    from perfbench.envinfo import environment
    from perfbench.metrics import result_metrics

    print(f"workload {name} seed {seed} trace {int(trace)}")
    print("environment " + json.dumps(environment(seed), sort_keys=True))
    out = run_workload(name, seed, seconds, trace)
    metrics = result_metrics(out.values, trace)
    for metric, entry in metrics.items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(f"  attempted {out.attempted}, failed {out.failed}")
    for failure in out.failures:
        print(f"  FAILED: {failure}")
    return {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    from perfbench.metrics import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(WORKLOADS) + ["all"]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        result = report(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (False, True):
            result = report(name, args.seed, args.seconds, trace)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
