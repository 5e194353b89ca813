"""One harness for the gated perf suites: ``python -m repro bench <suite>``.

A suite is a plain module that knows only its domain:

* ``configs(quick)`` — its config grid: a quick CI slice or the full run;
* ``run(configs)`` — a generator that runs and times the configs and
  yields one JSON-safe record per config (``_``-prefixed keys, such as
  an obs ``_snapshot``, stay out of the file);
* ``summary(record)`` — one progress line;
* ``gate(records, quick)`` — failure strings, empty when the run passes.
  A suite with a speedup gate also takes ``min_speedup`` and declares
  its default as ``MIN_SPEEDUP``;
* ``HEADER`` — the fields its JSON file carries beside the records, and
  ``TRACE_KEY`` when its records carry an obs ``_snapshot``.

The harness does everything else once: flags, the run loop, the
``BENCH_<suite>.json`` file with the ``environment`` the timings came
from, ``--store``, printing failures and the exit code (1 only under
``--check``).  Suites do not import it.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import sys
import time

import numpy as np

__all__ = ["SUITES", "add_arguments", "run_cli"]

#: suite name -> module, imported only when that suite runs.
SUITES = {
    "serve": "repro.serve.bench",
    "stream": "repro.stream.bench",
    "obs": "repro.harness.obs_bench",
}

_BLAS_THREAD_QUERIES = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "mkl_get_max_threads",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads():
    """Threads the loaded BLAS library reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {
                line.split()[-1]
                for line in fh
                if ".so" in line and ("blas" in line or "mkl" in line)
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    """The machine a run's timings came from: CPU, BLAS, versions, backend."""
    from ..backend import default_backend_name

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy older than 1.25
        blas = {}
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "compute_backend": default_backend_name(),
    }


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``bench`` subcommand's flags, shared by every suite."""
    parser.add_argument("suite", choices=list(SUITES))
    parser.add_argument("--quick", action="store_true",
                        help="the CI slice (seconds, not minutes)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when the suite's gate fails")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="perf-trajectory JSON (default BENCH_<suite>.json)")
    parser.add_argument("--store", default=None, metavar="PATH",
                        help="append the merged obs snapshot as a trace "
                             "record to this JSONL (serve, stream)")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="speedup the gate requires (default: serve 2.0)")


def run_cli(args: argparse.Namespace) -> int:
    """Run one suite per parsed args; returns the process exit code."""
    suite = importlib.import_module(SUITES[args.suite])
    for flag, value, attr in (("--store", args.store, "TRACE_KEY"),
                              ("--min-speedup", args.min_speedup, "MIN_SPEEDUP")):
        if value is not None and not hasattr(suite, attr):
            print(f"repro bench {args.suite}: {flag} does not apply to "
                  "this suite", file=sys.stderr)
            return 2
    configs = suite.configs(args.quick)
    print(f"bench {args.suite}: {len(configs)} configs "
          f"({'quick' if args.quick else 'full'} run)")
    records = []
    for record in suite.run(configs):
        records.append(record)
        print(f"  [{len(records)}/{len(configs)}] {suite.summary(record)}"
              f"{' [gate]' if record.get('gate') else ''}")
    if args.store:
        from ..obs import merge_snapshots, trace_record, write_trace

        merged = merge_snapshots([r["_snapshot"] for r in records])
        write_trace(args.store, trace_record(
            merged, label=suite.TRACE_KEY, key=suite.TRACE_KEY))
        print(f"trace appended to {args.store}")
    out = args.out or f"BENCH_{args.suite}.json"
    payload = {
        "bench": args.suite,
        **suite.HEADER,
        "quick": args.quick,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "numpy": np.__version__,
        "environment": _environment(),
        "records": [{k: v for k, v in r.items() if not k.startswith("_")}
                    for r in records],
    }
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")
    extra = {} if args.min_speedup is None else {"min_speedup": args.min_speedup}
    failures = suite.gate(records, args.quick, **extra)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if args.check and failures else 0
