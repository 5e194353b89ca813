"""The sampled gather of the reference backend holds no scratch state.

``sampled_matmul`` is the plain expression
``(b[idx, :].T @ (a[:, idx] * scales).T).T``: every call allocates its
own gather and output, so results never alias and the one shared
``reference`` instance, which every trainer built without
``compute_backend=`` runs on, serves concurrent threads.
"""

import sys
import threading

import numpy as np

from repro.backend import ComputeBackend, get_backend


def test_sampled_matmul_returns_fresh_output_arrays(rng):
    """Outputs must never alias each other."""
    backend = ComputeBackend()
    a = rng.normal(size=(6, 16))
    b = rng.normal(size=(16, 5))
    idx = np.arange(4)
    scales = np.full(4, 2.0)
    first = backend.sampled_matmul(a, b, idx, scales)
    kept = first.copy()
    backend.sampled_matmul(2.0 * a, b, idx, scales)
    assert np.array_equal(first, kept)


def test_non_float64_inputs_fall_back_to_the_canonical_path(rng):
    backend = ComputeBackend()
    a = rng.normal(size=(6, 16)).astype(np.float32)
    b = rng.normal(size=(16, 5)).astype(np.float32)
    idx = np.arange(4)
    scales = np.full(4, 2.0, dtype=np.float32)
    out = backend.sampled_matmul(a, b, idx, scales)
    assert out.dtype == np.float32
    assert np.array_equal(out, (a[:, idx] * scales) @ b[idx, :])


def test_two_threads_on_the_shared_backend_get_their_own_products(rng):
    """MC^M's weight-gradient shapes, one same-shaped draw per thread."""
    backend = get_backend("reference")
    idx = np.sort(rng.choice(20, size=10, replace=False))
    scales = rng.uniform(1.0, 3.0, size=idx.size)
    operands = [
        (rng.normal(size=(1000, 20)), rng.normal(size=(20, 1000)))
        for _ in range(2)
    ]
    expected = [(a[:, idx] * scales) @ b[idx, :] for a, b in operands]
    wrong = []
    start = threading.Barrier(2)

    def work(t):
        a, b = operands[t]
        start.wait()
        for _ in range(100):
            try:
                out = backend.sampled_matmul(a, b, idx, scales)
            except ValueError as exc:
                wrong.append(repr(exc))
                continue
            if not np.array_equal(out, expected[t]):
                wrong.append("wrong product")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [], f"{len(wrong)} of 200 calls: {sorted(set(wrong))}"
