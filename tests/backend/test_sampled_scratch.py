"""Allocation regression for the scratch-pooled sampled gather.

The MC trainer's ``(a[:, idx] * scales) @ b[idx, :]`` historically
allocated two fresh ``(m, keep)`` intermediates per call.  The reference
backend now stages the gather through a :class:`ScratchPool` buffer; the
pool's hit/miss statistics are the regression test — at steady state a
repeated shape must reuse one buffer, not allocate per call.
"""

import numpy as np
import pytest

from repro.backend import ComputeBackend, ScratchPool
from repro.core import make_trainer
from repro.nn.network import MLP


def test_scratch_pool_reuses_buffers():
    pool = ScratchPool()
    first = pool.get("x", (4, 8))
    again = pool.get("x", (4, 8))
    assert again is first
    assert (pool.misses, pool.hits) == (1, 1)
    # A different shape, dtype or slot is a different buffer.
    assert pool.get("x", (4, 9)) is not first
    assert pool.get("x", (4, 8), dtype=np.float32) is not first
    assert pool.get("y", (4, 8)) is not first
    assert pool.nbytes > 0
    pool.clear()
    assert (pool.misses, pool.hits, pool.nbytes) == (0, 0, 0)


def test_sampled_matmul_allocates_once_for_a_repeated_shape(rng):
    backend = ComputeBackend()
    a = rng.normal(size=(20, 64))
    b = rng.normal(size=(64, 32))
    idx = np.sort(rng.choice(64, size=10, replace=False))
    scales = rng.uniform(1.0, 3.0, size=idx.size)
    expected = (a[:, idx] * scales) @ b[idx, :]
    for _ in range(100):
        out = backend.sampled_matmul(a, b, idx, scales)
        assert np.array_equal(out, expected)
    # One miss fills the buffer; the other 99 calls reuse it.
    assert backend.scratch.misses == 1
    assert backend.scratch.hits == 99


def test_sampled_matmul_returns_fresh_output_arrays(rng):
    """Only the gather is pooled — outputs must never alias each other."""
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
    assert np.array_equal(out, (a[:, idx] * scales) @ b[idx, :])
    assert backend.scratch.misses == 0


@pytest.mark.parametrize("k", [5, 10])
def test_mc_trainer_reuses_the_gather_buffer(k, tiny_dataset):
    backend = ComputeBackend()
    net = MLP([64, 32, 32, 3], seed=123)
    trainer = make_trainer("mc", net, seed=123, k=k, compute_backend=backend)
    trainer.fit(
        tiny_dataset.x_train, tiny_dataset.y_train, epochs=2, batch_size=20
    )
    # The Bernoulli draw varies the keep count, so a handful of shapes
    # get buffers — but the bulk of the calls must be steady-state hits.
    assert backend.scratch.hits > backend.scratch.misses
