"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>``; see ``perfbench/README.md`` for the metric map.
"""

#: environment variables ``run.py`` sets before NumPy loads its BLAS, so
#: the benchmark's thread count never depends on the caller's shell.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
