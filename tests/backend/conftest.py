"""Shared machinery for the compute-backend tests.

Every trainer runs once on the tiny dataset with a recording reference
backend that notes which kernels it was called through, so the kernel
tests can check that the kernels on the seam are exactly those the
trainers call.
"""

import pytest

from repro.backend import KERNEL_NAMES, ComputeBackend
from repro.core import make_trainer
from repro.nn.network import MLP

TRAINER_NAMES = ["standard", "dropout", "adaptive_dropout", "alsh", "mc", "topk"]

#: fixed-seed recipe (matches tests/obs/conftest.py minus one epoch).
SEED = 123
LAYER_SIZES = [64, 32, 32, 3]
BATCH_SIZE = 20


class CapturingBackend(ComputeBackend):
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
    """Per-trainer kernel names called in one-epoch fixed-seed runs."""
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
    return out
