"""Shared machinery for the compute-backend tests.

Every trainer runs once on the tiny dataset with a recording reference
backend that notes which kernels it was called through, so the kernel
tests can check that every kernel has a live call site.
"""

import numpy as np
import pytest

from repro.backend import KERNEL_NAMES, ReferenceBackend, use_backend
from repro.core import make_trainer
from repro.nn.conv import Conv2D
from repro.nn.network import MLP

TRAINER_NAMES = ["standard", "dropout", "adaptive_dropout", "alsh", "mc", "topk"]

#: fixed-seed recipe (matches tests/obs/conftest.py minus one epoch).
SEED = 123
LAYER_SIZES = [64, 32, 32, 3]
BATCH_SIZE = 20


class CapturingBackend(ReferenceBackend):
    """Reference backend that records the names of the kernels it ran."""

    name = "capturing"

    def __init__(self):
        super().__init__()
        self.called = set()
        for kernel in KERNEL_NAMES:
            setattr(self, kernel, self._wrap(kernel))

    def _wrap(self, kernel):
        inner = getattr(super(), kernel)

        def wrapped(*args, **kwargs):
            self.called.add(kernel)
            return inner(*args, **kwargs)

        return wrapped


@pytest.fixture(scope="session")
def called_kernels(tiny_dataset):
    """Per-trainer kernel names called in one-epoch fixed-seed runs.

    A conv forward/backward pass rides along under the ``conv`` key so
    the im2col/col2im and conv GEMM kernels are captured too (no trainer
    exercises them).
    """
    out = {}
    for name in TRAINER_NAMES:
        backend = CapturingBackend()
        net = MLP(LAYER_SIZES, seed=SEED)
        trainer = make_trainer(name, net, seed=SEED, compute_backend=backend)
        trainer.fit(
            tiny_dataset.x_train,
            tiny_dataset.y_train,
            epochs=1,
            batch_size=BATCH_SIZE,
        )
        out[name] = backend.called

    conv_backend = CapturingBackend()
    with use_backend(conv_backend):
        rng = np.random.default_rng(SEED)
        conv = Conv2D(2, 4, field=3, stride=1, pad=1, rng=rng)
        x = rng.normal(size=(5, 2, 8, 8))
        z = conv.forward(x)
        conv.backward(rng.normal(size=z.shape))
    out["conv"] = conv_backend.called

    # No trainer drives the DWTA gather, so capture it from its real call
    # site directly.
    extras = CapturingBackend()
    with use_backend(extras):
        from repro.lsh.dwta import DensifiedWTA, FusedDWTA

        rng = np.random.default_rng(SEED)
        a_prev = rng.normal(size=(BATCH_SIZE, LAYER_SIZES[0]))
        fns = [
            DensifiedWTA(LAYER_SIZES[0], n_bits=4, rng=rng) for _ in range(2)
        ]
        FusedDWTA(fns).hash_all(a_prev)
    out["extras"] = extras.called
    return out
