"""Explicitly selecting the reference backend is still a bitwise no-op.

The obs suite pins the trainers' weight digests against the
pre-instrumentation bytes under the *default* dispatch path; these tests
pin the two explicit selection paths — the per-trainer
``compute_backend=`` argument and a ``use_backend`` scope — against the
same digests, so routing through the backend layer provably never
changes what is computed.
"""

import pytest

from obs.conftest import (
    BATCH_SIZE,
    EPOCHS,
    LAYER_SIZES,
    SEED,
    TRAINER_NAMES,
    weights_digest,
)
from obs.test_noop import PRE_INSTRUMENTATION_DIGESTS
from repro.backend import get_backend, use_backend
from repro.core import make_trainer
from repro.nn.network import MLP


def _fit(name, dataset, **trainer_kwargs):
    net = MLP(LAYER_SIZES, seed=SEED)
    trainer = make_trainer(name, net, seed=SEED, **trainer_kwargs)
    trainer.fit(
        dataset.x_train,
        dataset.y_train,
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        x_val=dataset.x_val,
        y_val=dataset.y_val,
    )
    return weights_digest(net)


@pytest.mark.parametrize("name", TRAINER_NAMES)
def test_explicit_reference_backend_reproduces_digests(name, tiny_dataset):
    digest = _fit(name, tiny_dataset, compute_backend=get_backend("reference"))
    assert digest == PRE_INSTRUMENTATION_DIGESTS[name]


def test_use_backend_scope_reproduces_digest(tiny_dataset):
    with use_backend(get_backend("reference")):
        digest = _fit("mc", tiny_dataset)
    assert digest == PRE_INSTRUMENTATION_DIGESTS["mc"]
