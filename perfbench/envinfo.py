"""The environment block every benchmark result carries."""

from __future__ import annotations

import ctypes
import os
import platform
from typing import Optional

import numpy as np

from repro.backend import default_backend_name

from . import BLAS_THREAD_VARS

__all__ = ["environment"]

_THREAD_QUERIES = (
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


def _blas_threads() -> Optional[int]:
    """Threads the loaded BLAS library reports, if it can be asked."""
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
        for symbol in _THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    """CPU, core count, BLAS, versions, compute backend and workload seed."""
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy older than 1.25
        pass
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "compute_backend": default_backend_name(),
        "seed": seed,
    }
