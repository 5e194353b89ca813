"""InstrumentedBackend: per-kernel timings, FLOP counters, traced runs."""

import numpy as np
import pytest

from repro.backend import ComputeBackend, InstrumentedBackend, get_backend
from repro.core import make_trainer
from repro.nn.activations import ReLU
from repro.nn.network import MLP
from repro.obs import InMemoryRecorder
from repro.obs.counters import BACKEND_USED_PREFIX, KERNEL_FLOPS_PREFIX

from .conftest import BATCH_SIZE, LAYER_SIZES, SEED, TRAINER_NAMES


@pytest.fixture
def instrumented():
    recorder = InMemoryRecorder()
    return InstrumentedBackend(ComputeBackend(), recorder), recorder


def test_gemm_kernels_record_time_and_flops(instrumented, rng):
    backend, recorder = instrumented
    a = rng.normal(size=(20, 64))
    w = rng.normal(size=(64, 32))
    backend.matmul(a, w)
    snap = recorder.snapshot()
    assert snap["counters"][KERNEL_FLOPS_PREFIX + "matmul"] == 2 * 20 * 64 * 32
    assert snap["timings"]["kernel.matmul"]["count"] == 1


def test_subset_kernels_model_only_the_subset_flops(instrumented, rng):
    backend, recorder = instrumented
    a = rng.normal(size=(20, 64))
    w = rng.normal(size=(64, 32))
    bias = rng.normal(size=32)
    cols = np.arange(8)
    idx = np.arange(10)
    scales = np.ones(10)
    backend.matmul_cols(a, w, bias, cols)
    backend.sampled_matmul(a, w, idx, scales)
    counters = recorder.snapshot()["counters"]
    assert counters[KERNEL_FLOPS_PREFIX + "matmul_cols"] == 2 * 20 * 64 * 8
    assert counters[KERNEL_FLOPS_PREFIX + "sampled_matmul"] == 2 * 20 * 10 * 32
    assert KERNEL_FLOPS_PREFIX + "matmul" not in counters


def test_elementwise_kernels_are_timed_but_not_flop_counted(instrumented, rng):
    backend, recorder = instrumented
    z = rng.normal(size=(20, 64))
    assert np.array_equal(backend.apply_activation(ReLU(), z), np.maximum(z, 0.0))
    snap = recorder.snapshot()
    assert snap["timings"]["kernel.apply_activation"]["count"] == 1
    assert KERNEL_FLOPS_PREFIX + "apply_activation" not in snap["counters"]


def test_wrapper_preserves_results_and_name(rng):
    backend = InstrumentedBackend(ComputeBackend(), InMemoryRecorder())
    assert backend.name == "reference"
    a = rng.normal(size=(4, 6))
    b = rng.normal(size=(6, 3))
    assert np.array_equal(backend.matmul(a, b), a @ b)


def test_traced_run_attributes_backend_and_kernels(tiny_dataset):
    recorder = InMemoryRecorder()
    net = MLP([64, 32, 32, 3], seed=123)
    trainer = make_trainer(
        "mc", net, seed=123, recorder=recorder,
        compute_backend=get_backend("reference"),
    )
    trainer.fit(
        tiny_dataset.x_train, tiny_dataset.y_train, epochs=1, batch_size=20
    )
    snap = recorder.snapshot()
    assert snap["counters"][BACKEND_USED_PREFIX + "reference"] == 1
    assert snap["counters"][KERNEL_FLOPS_PREFIX + "sampled_matmul"] > 0
    assert any(k.startswith("kernel.") for k in snap["timings"])
    # The trainer pinned an instrumented wrapper around the given backend.
    assert isinstance(trainer.compute_backend, InstrumentedBackend)
    assert trainer.compute_backend.inner is get_backend("reference")


def _kernel_flops(recorder) -> int:
    counters = recorder.snapshot()["counters"]
    return sum(v for k, v in counters.items() if k.startswith(KERNEL_FLOPS_PREFIX))


@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_inference_runs_on_the_pinned_backend(name, tiny_dataset):
    """A traced trainer's post-fit inference goes through its kernels too,
    whichever ``predict`` the method has (and ``predict_exact``)."""
    recorder = InMemoryRecorder()
    trainer = make_trainer(
        name, MLP(LAYER_SIZES, seed=SEED), seed=SEED, recorder=recorder
    )
    trainer.fit(
        tiny_dataset.x_train, tiny_dataset.y_train, epochs=1,
        batch_size=BATCH_SIZE,
    )
    before = _kernel_flops(recorder)
    trainer.evaluate(tiny_dataset.x_test, tiny_dataset.y_test)
    assert _kernel_flops(recorder) > before
    if hasattr(trainer, "predict_exact"):
        before = _kernel_flops(recorder)
        trainer.predict_exact(tiny_dataset.x_test)
        assert _kernel_flops(recorder) > before
