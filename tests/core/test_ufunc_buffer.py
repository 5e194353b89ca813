"""Trainers work under a pinned NumPy ufunc buffer, bit for bit.

Every trainer entry point — ``fit``, ``train_batch``, ``evaluate``,
ALSH's ``refresh_tables``, a stream run and the probes' ``probe_scope``
— holds NumPy's ufunc buffer at :data:`~repro.core.base.UFUNC_BUFFER`
elements, with or without a ``compute_backend``, and gives the caller's
size back on exit, also when a step raises.  The pin only stops NumPy
copying broadcast operands through the buffer, so the kernels it speeds
up return the bytes they return under NumPy's default buffer; the
paper-width weight digests under any caller buffer are pinned in
``test_fused_weight_steps.py``.
"""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.backend import KERNEL_NAMES, ComputeBackend
from repro.core.base import UFUNC_BUFFER
from repro.core.registry import make_trainer, trainer_names
from repro.nn.network import MLP
from repro.nn.optim import BLOCK_BYTES, get_optimizer
from repro.obs import InMemoryRecorder
from repro.stream.trainer import make_stream_trainer
from repro.theory import layerwise_error

#: NumPy's own default buffer size, in elements.
NUMPY_DEFAULT = 8192
#: A caller's size that differs from both.
CALLER = 4096

SIZES = [8, 12, 12, 3]


@contextmanager
def _buffer(size):
    old = np.setbufsize(size)
    try:
        yield
    finally:
        np.setbufsize(old)


@pytest.fixture(autouse=True)
def caller_buffer():
    """Every test runs with the caller's buffer at :data:`CALLER`."""
    with _buffer(CALLER):
        yield


def _trainer(method, traced=False):
    recorder = InMemoryRecorder() if traced else None
    return make_trainer(method, MLP(SIZES, seed=0), seed=1, recorder=recorder)


def _data(rows=40):
    rng = np.random.default_rng(2)
    return rng.normal(size=(rows, SIZES[0])), rng.integers(0, SIZES[-1], rows)


def _spy(monkeypatch):
    """The buffer size each kernel call saw.  Set it up before building
    the trainer: a traced trainer's wrapper binds the kernels it wraps."""
    seen = []
    for name in KERNEL_NAMES:
        kernel = getattr(ComputeBackend, name)

        def spy(self, *args, _kernel=kernel, **kwargs):
            seen.append(np.getbufsize())
            return _kernel(self, *args, **kwargs)

        monkeypatch.setattr(ComputeBackend, name, spy)
    return seen


def _spy_updates(optimizer, seen):
    """Add the buffer size each ``optimizer.update`` call saw to ``seen``."""
    update = optimizer.update

    def spy(*args, **kwargs):
        seen.append(np.getbufsize())
        return update(*args, **kwargs)

    optimizer.update = spy


def _fit(trainer, x, y, batch):
    trainer.fit(x, y, epochs=1, batch_size=batch, shuffle=False)


def _train_batch(trainer, x, y, batch):
    trainer.train_batch(x[:batch], y[:batch])


ENTRIES = {"fit": _fit, "train_batch": _train_batch}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("batch", [1, 20])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("method", trainer_names())
def test_training_runs_under_the_pinned_buffer(
    monkeypatch, method, entry, batch, traced
):
    seen = _spy(monkeypatch)
    trainer = _trainer(method, traced)
    _spy_updates(trainer.optimizer, seen)
    ENTRIES[entry](trainer, *_data(), batch)
    assert seen and set(seen) == {UFUNC_BUFFER}
    assert np.getbufsize() == CALLER


@pytest.mark.parametrize("entry", sorted(ENTRIES))
@pytest.mark.parametrize("method", trainer_names())
def test_a_step_that_raises_gives_the_callers_buffer_back(method, entry):
    trainer = _trainer(method)

    def fail(*args, **kwargs):
        assert np.getbufsize() == UFUNC_BUFFER
        raise RuntimeError("step failed")

    trainer.optimizer.update = fail
    with pytest.raises(RuntimeError, match="step failed"):
        ENTRIES[entry](trainer, *_data(), 1)
    assert np.getbufsize() == CALLER


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("method", trainer_names())
def test_evaluate_runs_under_the_pinned_buffer(monkeypatch, method, traced):
    seen = _spy(monkeypatch)
    trainer = _trainer(method, traced)
    trainer.evaluate(*_data())
    assert seen and set(seen) == {UFUNC_BUFFER}
    assert np.getbufsize() == CALLER


def test_alsh_refresh_runs_under_the_pinned_buffer(monkeypatch):
    trainer = _trainer("alsh")
    _train_batch(trainer, *_data(), 4)
    seen = _spy(monkeypatch)
    assert trainer.refresh_tables() > 0
    assert seen and set(seen) == {UFUNC_BUFFER}
    assert np.getbufsize() == CALLER


def test_alsh_table_build_runs_under_the_pinned_buffer(monkeypatch):
    seen = _spy(monkeypatch)
    _trainer("alsh")
    assert seen and set(seen) == {UFUNC_BUFFER}
    assert np.getbufsize() == CALLER


def test_stream_run_runs_under_the_pinned_buffer(monkeypatch):
    seen = _spy(monkeypatch)
    stream = make_stream_trainer(width=16, drift_threshold=0.001)
    _spy_updates(stream.trainer.optimizer, seen)
    stream.run(30)
    assert seen and set(seen) == {UFUNC_BUFFER}
    assert np.getbufsize() == CALLER


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("method", trainer_names())
def test_layerwise_error_runs_under_the_pinned_buffer(monkeypatch, method, traced):
    seen = _spy(monkeypatch)
    trainer = _trainer(method, traced)
    layerwise_error(trainer, _data()[0], np.random.default_rng(3))
    assert seen and set(seen) == {UFUNC_BUFFER}
    assert np.getbufsize() == CALLER


def _bytes(arrays):
    return [(a.flags.f_contiguous, a.tobytes(order="A")) for a in arrays]


@pytest.mark.parametrize("n_in", [784, 1000])
def test_single_sample_gradient_blocks_are_bitwise(n_in):
    """``a ⊗ δ`` column blocks, as ``Trainer._update_weights`` cuts them,
    with ReLU zeros in ``a`` and ±0.0 in ``δ``."""
    rng = np.random.default_rng(n_in)
    a = np.maximum(rng.normal(size=n_in), 0.0)
    delta = rng.normal(size=1000)
    delta[::7], delta[3::7] = 0.0, -0.0
    width = BLOCK_BYTES // a.nbytes
    backend = ComputeBackend()
    blocks = {}
    for size in (NUMPY_DEFAULT, UFUNC_BUFFER):
        with _buffer(size):
            blocks[size] = _bytes(
                backend.grad_cols(a, delta[start:start + width])
                for start in range(0, delta.size, width)
            )
    assert blocks[NUMPY_DEFAULT] == blocks[UFUNC_BUFFER]


@pytest.mark.parametrize("index", ["slice", "ids"])
@pytest.mark.parametrize("rule", ["sgd", "adam"])
def test_optimizer_block_steps_are_bitwise(rule, index):
    """Three steps of one 1000×32 column block of a column-major ``W``."""
    rng = np.random.default_rng(5)
    start = np.asfortranarray(rng.normal(size=(1000, 96)))
    if index == "slice":
        index = slice(32, 64)
    else:
        index = np.sort(rng.choice(96, size=32, replace=False))
    a = np.maximum(rng.normal(size=1000), 0.0)
    grads = [ComputeBackend().grad_cols(a, rng.normal(size=32)) for _ in range(3)]
    weights = {}
    for size in (NUMPY_DEFAULT, UFUNC_BUFFER):
        optimizer = get_optimizer(rule, 1e-2)
        param = start.copy(order="F")
        with _buffer(size):
            for grad in grads:
                optimizer.update(("W", 0), param, grad, index=index)
        weights[size] = _bytes([param])
    assert weights[NUMPY_DEFAULT] == weights[UFUNC_BUFFER]
