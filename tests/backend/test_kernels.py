"""Kernel tests: the reference backend against the raw NumPy expressions.

The reference kernels are pinned bitwise against the expressions they
replaced, and real one-epoch runs of all six trainers must call exactly
the kernels in ``KERNEL_NAMES``.
"""

import numpy as np
import pytest

from repro.backend import KERNEL_NAMES, ComputeBackend


@pytest.fixture(scope="module")
def reference():
    return ComputeBackend()


# ----------------------------------------------------------------------
# reference vs the raw historical expressions
# ----------------------------------------------------------------------


def test_reference_dense_kernels_bitwise(rng, reference):
    a = rng.normal(size=(20, 64))
    w = rng.normal(size=(64, 32))
    bias = rng.normal(size=32)
    assert np.array_equal(reference.matmul(a, w), a @ w)
    assert np.array_equal(reference.matmul_add_bias(a, w, bias), a @ w + bias)


def test_reference_subset_kernels_bitwise(rng, reference):
    a = rng.normal(size=(20, 64))
    w = rng.normal(size=(64, 32))
    bias = rng.normal(size=32)
    cols = np.array([1, 5, 17, 30])
    delta = rng.normal(size=(20, cols.size))
    assert np.array_equal(
        reference.matmul_cols(a, w, bias, cols), a @ w[:, cols] + bias[cols]
    )
    assert np.array_equal(
        reference.matmul_cols(a, w, None, cols), a @ w[:, cols]
    )
    assert np.array_equal(
        reference.backprop_cols(delta, w, cols), delta @ w[:, cols].T
    )
    assert np.array_equal(
        reference.backprop_cols(delta[0], w, cols), w[:, cols] @ delta[0]
    )
    assert np.array_equal(reference.grad_cols(a, delta), a.T @ delta)
    assert np.array_equal(
        reference.grad_cols(a[0], delta[0]), np.outer(a[0], delta[0])
    )


def test_reference_sampled_matmul_bitwise(rng, reference):
    a = rng.normal(size=(20, 64))
    b = rng.normal(size=(64, 32))
    idx = np.sort(rng.choice(64, size=10, replace=False))
    scales = rng.uniform(1.0, 3.0, size=idx.size)
    expected = (a[:, idx] * scales) @ b[idx, :]
    assert np.array_equal(reference.sampled_matmul(a, b, idx, scales), expected)
    # Empty draw: the MC estimator contributes a zero matrix.
    empty = reference.sampled_matmul(a, b, np.array([], dtype=int), scales[:0])
    assert empty.shape == (20, 32)
    assert not empty.any()


# ----------------------------------------------------------------------
# kernels called by real runs
# ----------------------------------------------------------------------


def test_capture_covers_the_gemm_kernels(called_kernels):
    assert set(KERNEL_NAMES) == set().union(*called_kernels.values())
