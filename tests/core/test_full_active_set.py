"""With every node active, the sparse trainers are exact training.

Dropout at ``keep_prob=1``, top-k at ``active_frac=1`` and ALSH with
both active-fraction caps at 1 select every hidden node, so each step
must apply the same updates as ``standard`` fed the same batches.  The
two methods of the full-width loop degenerate the same way: MC-approx
with ``k`` above the batch and ``node_frac=1`` keeps every index with a
nonzero score at p = 1, and standout with ``alpha=0, beta=40`` keeps
every node, since sigmoid(40) rounds to exactly 1.0.  Two
hidden layers are needed to see the order of the backward pass: a hidden
layer's delta must be backpropagated through the weights as they were
before that layer's update.  The one-sample cases cover the per-sample
step; the batch-8 cases (dropout's shared mask and ALSH's ``union``
mode) cover the step in which a whole batch shares one active set.
"""

import numpy as np
import pytest

from repro.core import make_trainer
from repro.nn.network import MLP

LAYER_SIZES = [8, 12, 12, 3]
STEPS = {1: 120, 8: 60}

ALSH_ALL = {"min_active_frac": 1.0, "max_active_frac": 1.0}
MC_ALL = {"k": 100, "node_frac": 1.0}
STANDOUT_ALL = {"alpha": 0.0, "beta": 40.0}

#: case id -> (method, kwargs that make every node active, batch size)
FULL_ACTIVE_SET = {
    "dropout": ("dropout", {"keep_prob": 1.0}, 1),
    "topk": ("topk", {"active_frac": 1.0}, 1),
    "alsh": ("alsh", ALSH_ALL, 1),
    "dropout-batch8": ("dropout", {"keep_prob": 1.0}, 8),
    "alsh_union-batch8": ("alsh", {**ALSH_ALL, "batch_mode": "union"}, 8),
    "mc": ("mc", MC_ALL, 1),
    "mc-batch8": ("mc", MC_ALL, 8),
    "adaptive_dropout": ("adaptive_dropout", STANDOUT_ALL, 1),
    "adaptive_dropout-batch8": ("adaptive_dropout", STANDOUT_ALL, 8),
}


def _train(method, optimizer, x, y, batch, **kwargs):
    net = MLP(LAYER_SIZES, seed=0)
    trainer = make_trainer(method, net, lr=0.05, optimizer=optimizer, seed=1,
                           **kwargs)
    for i in range(0, len(y), batch):
        trainer.train_batch(x[i:i + batch], y[i:i + batch])
    return net


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("case", sorted(FULL_ACTIVE_SET))
def test_full_active_set_matches_standard(case, optimizer):
    method, kwargs, batch = FULL_ACTIVE_SET[case]
    n = STEPS[batch] * batch
    rng = np.random.default_rng(0)
    x = rng.normal(size=(n, LAYER_SIZES[0]))
    y = rng.integers(0, LAYER_SIZES[-1], size=n)
    sparse = _train(method, optimizer, x, y, batch, **kwargs)
    exact = _train("standard", optimizer, x, y, batch)
    for la, lb in zip(sparse.layers, exact.layers):
        np.testing.assert_allclose(la.W, lb.W, rtol=0, atol=1e-12)
        np.testing.assert_allclose(la.b, lb.b, rtol=0, atol=1e-12)
