"""Single-sample weight steps against a materialised reference.

A one-sample step's weight gradient is the outer product ``a ⊗ δ``.
``Trainer._update_weights`` never builds it: it hands the optimiser one
column block at a time.  The reference here builds ``grad_cols(a, δ)``
whole and calls ``optimizer.update`` once per parameter, as training did
before.  Weights, losses and work counters must agree bit for bit after
every step.  The hidden layers of 784→300→300→10 span several blocks
(a block holds ``BLOCK_BYTES // (8 n_in)`` float64 columns),
so each step crosses block boundaries, dense and lazy.

The last test pins paper-width (784→1000³→10) weights of all six
methods after ten single-sample steps, at digests written before the
fused step existed.
"""

import hashlib
import types

import numpy as np
import pytest

from repro.backend import active_backend
from repro.core import make_trainer
from repro.nn.network import MLP
from repro.nn.optim import BLOCK_BYTES
from repro.obs import InMemoryRecorder

LAYER_SIZES = [784, 300, 300, 10]
STEPS = 6

#: method -> kwargs; the samplers keep enough columns for several blocks.
METHODS = {
    "standard": {},
    "dropout": {"keep_prob": 0.75},
    "adaptive_dropout": {},
    "mc": {},
    "alsh": {"min_active_frac": 0.5, "max_active_frac": 1.0},
    "topk": {"active_frac": 0.75},
}

#: case id -> (method, batch size); ALSH and top-k step per sample at
#: any batch size.
CASES = {
    **{f"{method}-batch1": (method, 1) for method in METHODS},
    "alsh-batch4": ("alsh", 4),
    "topk-batch4": ("topk", 4),
}


def _materialised(self, key, param, a_prev, delta, index=None):
    """The whole gradient, one ``optimizer.update`` per parameter."""
    self._update(key, param, active_backend().grad_cols(a_prev, delta), index)


def _pair(method, optimizer):
    trainers = []
    for _ in range(2):
        trainers.append(make_trainer(
            method, MLP(LAYER_SIZES, seed=0), lr=0.01, optimizer=optimizer,
            seed=1, recorder=InMemoryRecorder(), **METHODS[method],
        ))
    fused, reference = trainers
    reference._update_weights = types.MethodType(_materialised, reference)
    return fused, reference


def _assert_same(fused, reference):
    for layer, ref in zip(fused.net.layers, reference.net.layers):
        assert np.array_equal(layer.W, ref.W)
        assert np.array_equal(layer.b, ref.b)


def test_hidden_layers_span_several_blocks():
    for n_in, n_out in zip(LAYER_SIZES[:2], LAYER_SIZES[1:3]):
        assert n_out > 2 * (BLOCK_BYTES // (8 * n_in))


@pytest.mark.parametrize("method", sorted(METHODS))
def test_single_sample_steps_never_build_the_gradient(method):
    trainer = make_trainer(
        method, MLP(LAYER_SIZES, seed=0), lr=0.01, seed=1, **METHODS[method]
    )
    blocks = []
    update = trainer.optimizer.update

    def spy(key, param, grad, index=None):
        if key[0] == "W":
            blocks.append((param.shape[0], grad.shape[-1]))
        update(key, param, grad, index=index)

    trainer.optimizer.update = spy
    rng = np.random.default_rng(2)
    trainer.train_batch(rng.random((1, LAYER_SIZES[0])), np.array([3]))
    assert len(blocks) > len(LAYER_SIZES)
    assert all(cols <= BLOCK_BYTES // (8 * n_in) for n_in, cols in blocks)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_step_matches_materialised_gradient(case, optimizer):
    method, batch = CASES[case]
    fused, reference = _pair(method, optimizer)
    rng = np.random.default_rng(2)
    x = rng.random((STEPS * batch, LAYER_SIZES[0]))
    y = rng.integers(0, LAYER_SIZES[-1], size=STEPS * batch)
    for i in range(0, len(y), batch):
        loss = fused.train_batch(x[i:i + batch], y[i:i + batch])
        assert loss == reference.train_batch(x[i:i + batch], y[i:i + batch])
        _assert_same(fused, reference)
    assert (
        fused.obs.snapshot()["counters"] == reference.obs.snapshot()["counters"]
    )


#: sha256 of every W and b after ten batch-1 steps at 784→1000³→10 on
#: the recipe of ``_paper_width_digest``, written before single-sample
#: steps were fused.
PAPER_WIDTH_DIGESTS = {
    "standard": (
        "bfa1458e041a2084a95564f454ee91a327b0251b58a49d687acf27a72200fa3f"
    ),
    "dropout": (
        "982eff3c7b8ea7f6fab682cfa50bd71e32eccb0e7d506ebe0fc81d63118f5c35"
    ),
    "adaptive_dropout": (
        "0cbb33fb48e7acf6cf45e92911153c65076c28a49027c2d37776fe8b592695ab"
    ),
    "mc": (
        "0b015f967217a74a207796e0ce7d084982ecf335296e29807d32414a841880a2"
    ),
    "alsh": (
        "e7799353efc78270b6c04fa6075de2c478c6f2891c4f35debf0aff18f22b76bc"
    ),
    "topk": (
        "24f219aa2dcfa0d7b31fec5ef4cfbf821c2bb84350114145984cbf098d6d9f18"
    ),
}

#: method -> (lr, kwargs): the paper's batch-1 settings (§8.4).
PAPER_SETTINGS = {
    "standard": (1e-3, {}),
    "dropout": (1e-2, {"keep_prob": 0.05}),
    "adaptive_dropout": (1e-2, {"target_keep": 0.05, "alpha": 2.0}),
    "mc": (1e-4, {"k": 10}),
    "alsh": (1e-3, {"optimizer": "adam"}),
    "topk": (1e-3, {"optimizer": "adam"}),
}


def _paper_width_digest(method):
    lr, kwargs = PAPER_SETTINGS[method]
    net = MLP([784, 1000, 1000, 1000, 10], seed=3)
    trainer = make_trainer(method, net, lr=lr, seed=4, **kwargs)
    rng = np.random.default_rng(5)
    x = rng.random((10, 784))
    y = rng.integers(0, 10, size=10)
    for i in range(10):
        trainer.train_batch(x[i:i + 1], y[i:i + 1])
    digest = hashlib.sha256()
    for layer in net.layers:
        digest.update(np.ascontiguousarray(layer.W).tobytes())
        digest.update(np.ascontiguousarray(layer.b).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("method", sorted(PAPER_WIDTH_DIGESTS))
def test_paper_width_weights_are_pinned(method):
    assert _paper_width_digest(method) == PAPER_WIDTH_DIGESTS[method]
