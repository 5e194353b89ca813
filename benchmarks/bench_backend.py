#!/usr/bin/env python
"""Perf-regression microbenchmark: reference vs fast backends.

Unlike the table/figure benches in this directory (pytest-benchmark
suites), this is a plain script so CI can run it without pytest:

    PYTHONPATH=src python benchmarks/bench_backend.py --quick --check

It times the dense and sampled GEMM kernels at the paper's shapes on
every built-in compute backend, verifies the fast backend stays within
its documented float32 tolerance of reference, writes
``BENCH_backend.json`` at the repo root, and — under ``--check`` —
fails if ``fast`` does not beat ``reference`` at the gated paper-scale
dense and sampled shapes.  See ``repro.backend.bench`` for the
implementation and ``python -m repro backend-bench`` for the CLI twin.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(_ROOT / "src"))

from repro.backend.bench import add_arguments, run_cli  # noqa: E402


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_arguments(parser)
    parser.set_defaults(out=str(_ROOT / "BENCH_backend.json"))
    return run_cli(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
