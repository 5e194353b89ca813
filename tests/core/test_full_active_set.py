"""With every node active, the sparse trainers are exact training.

Dropout at ``keep_prob=1``, top-k at ``active_frac=1`` and ALSH with
both active-fraction caps at 1 select every hidden node, so each
one-sample step must apply the same updates as ``standard`` fed the same
samples.  Two hidden layers are needed to see the order of the backward
pass: a hidden layer's delta must be backpropagated through the weights
as they were before that layer's update.
"""

import numpy as np
import pytest

from repro.core import make_trainer
from repro.nn.network import MLP

LAYER_SIZES = [8, 12, 12, 3]
STEPS = 120

FULL_ACTIVE_SET = {
    "dropout": {"keep_prob": 1.0},
    "topk": {"active_frac": 1.0},
    "alsh": {"min_active_frac": 1.0, "max_active_frac": 1.0},
}


def _train(method, optimizer, x, y, **kwargs):
    net = MLP(LAYER_SIZES, seed=0)
    trainer = make_trainer(method, net, lr=0.05, optimizer=optimizer, seed=1,
                           **kwargs)
    for i in range(STEPS):
        trainer.train_batch(x[i:i + 1], y[i:i + 1])
    return net


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("method", sorted(FULL_ACTIVE_SET))
def test_full_active_set_matches_standard(method, optimizer):
    rng = np.random.default_rng(0)
    x = rng.normal(size=(STEPS, LAYER_SIZES[0]))
    y = rng.integers(0, LAYER_SIZES[-1], size=STEPS)
    sparse = _train(method, optimizer, x, y, **FULL_ACTIVE_SET[method])
    exact = _train("standard", optimizer, x, y)
    for la, lb in zip(sparse.layers, exact.layers):
        np.testing.assert_allclose(la.W, lb.W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(la.b, lb.b, rtol=0, atol=1e-12)
