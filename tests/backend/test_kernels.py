"""Kernel property tests: every backend against the reference results.

Two layers of evidence:

* the reference backend itself is pinned against the raw NumPy
  expressions it replaced (bitwise);
* calls captured from real one-epoch runs of all six trainers (plus a
  conv pass) are replayed on every other backend — float64-preserving
  backends must match bitwise, the float32 fast backend within its
  documented tolerance.
"""

import numpy as np
import pytest

from repro.backend import FAST_RTOL, FastBackend, ReferenceBackend

from .conftest import TRAINER_NAMES, replay

#: absolute slack for float32 replays — float32 rounding of near-zero
#: entries (gradients late in training) needs more than FAST_ATOL.
F32_ATOL = 1e-3

CAPTURE_KEYS = TRAINER_NAMES + ["conv", "extras"]


@pytest.fixture(scope="module")
def reference():
    return ReferenceBackend()


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
    rows = np.array([0, 3, 33, 63])
    scale = rng.uniform(1.0, 2.0, size=rows.size)
    delta = rng.normal(size=(20, cols.size))
    assert np.array_equal(
        reference.matmul_cols(a, w, bias, cols), a @ w[:, cols] + bias[cols]
    )
    assert np.array_equal(
        reference.matmul_cols(a, w, None, cols), a @ w[:, cols]
    )
    assert np.array_equal(
        reference.matmul_rows(a, w, bias, rows, scale),
        (a[:, rows] * scale) @ w[rows, :] + bias,
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


def test_reference_gather_cols_matches_fancy_indexing(rng, reference):
    a = rng.normal(size=(20, 64))
    flat = np.array([3, 9, 9, 41])
    binned = rng.integers(0, 64, size=(8, 6))
    assert np.array_equal(reference.gather_cols(a, flat), a[:, flat])
    assert np.array_equal(reference.gather_cols(a, binned), a[:, binned])


# ----------------------------------------------------------------------
# captured trainer calls replayed on every backend
# ----------------------------------------------------------------------


def test_capture_covers_the_gemm_kernels(captured_calls):
    kernels = {c["kernel"] for calls in captured_calls.values() for c in calls}
    assert {
        "matmul",
        "matmul_add_bias",
        "matmul_cols",
        "matmul_rows",
        "backprop_cols",
        "grad_cols",
        "sampled_matmul",
        "gather_cols",
        "apply_activation",
        "im2col",
        "col2im",
    } <= kernels


@pytest.mark.parametrize("source", CAPTURE_KEYS)
def test_fast_float64_replays_bitwise(source, captured_calls):
    backend = FastBackend(precision="float64")
    for call in captured_calls[source]:
        out = replay(call, backend)
        assert np.array_equal(out, call["expected"]), call["kernel"]


@pytest.mark.parametrize("source", CAPTURE_KEYS)
def test_fast_float32_replays_within_tolerance(source, captured_calls):
    backend = FastBackend()
    for call in captured_calls[source]:
        out = replay(call, backend)
        assert out.shape == call["expected"].shape
        assert np.allclose(
            out, call["expected"], rtol=FAST_RTOL, atol=F32_ATOL
        ), call["kernel"]


@pytest.mark.parametrize("source", CAPTURE_KEYS)
def test_fast_float64_accumulation_within_tolerance(source, captured_calls):
    backend = FastBackend(accumulate="float64")
    for call in captured_calls[source]:
        out = replay(call, backend)
        assert np.allclose(
            out, call["expected"], rtol=FAST_RTOL, atol=F32_ATOL
        ), call["kernel"]


# ----------------------------------------------------------------------
# paper-scale shapes (big enough to take the staged code paths)
# ----------------------------------------------------------------------


def test_fast_float32_paths_within_tolerance_at_scale(rng):
    a = rng.normal(size=(64, 600))
    w = rng.normal(size=(600, 200))
    bias = rng.normal(size=200)
    idx = np.sort(rng.choice(600, size=80, replace=False))
    scales = rng.uniform(1.0, 3.0, size=idx.size)
    cols = np.sort(rng.choice(200, size=120, replace=False))
    delta = rng.normal(size=(64, cols.size))
    ref = ReferenceBackend()
    for accumulate in (None, "float64"):
        fast = FastBackend(accumulate=accumulate)
        pairs = [
            (fast.matmul(a, w), ref.matmul(a, w)),
            (fast.matmul_add_bias(a, w, bias), ref.matmul_add_bias(a, w, bias)),
            (fast.matmul_cols(a, w, bias, cols),
             ref.matmul_cols(a, w, bias, cols)),
            (fast.matmul_rows(a, w, bias, idx, scales),
             ref.matmul_rows(a, w, bias, idx, scales)),
            (fast.backprop_cols(delta, w, cols),
             ref.backprop_cols(delta, w, cols)),
            (fast.grad_cols(a, delta), ref.grad_cols(a, delta)),
            (fast.sampled_matmul(a, w, idx, scales),
             ref.sampled_matmul(a, w, idx, scales)),
        ]
        for got, expected in pairs:
            assert got.dtype == np.float64
            assert np.allclose(got, expected, rtol=FAST_RTOL, atol=F32_ATOL)


def test_fast_rejects_bad_modes():
    with pytest.raises(ValueError):
        FastBackend(precision="float16")
    with pytest.raises(ValueError):
        FastBackend(accumulate="float128")
