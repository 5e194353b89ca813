"""Weight layout invariants of trainers, checkpoints and servables.

Trainers keep every ``W`` column-major (node-major) in its logical
``(n_in, n_out)`` shape, and the weight-gradient kernels return the same
layout, so no optimiser step mixes layouts.  Servables freeze their
weights row-major, and a network frozen for serving is refused by every
trainer before anything about it changes.
"""

import numpy as np
import pytest

from repro.core.registry import make_trainer, trainer_names
from repro.nn.network import MLP
from repro.nn.serialize import save_mlp
from repro.serve.registry import ServableModel, load_servable, weights_digest

METHODS = trainer_names()
SIZES = [12, 16, 16, 3]  # no 1-wide W, so the two layouts never coincide


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(3)
    return rng.normal(size=(40, 12)), rng.integers(0, 3, size=40)


def build(method, net=None):
    return make_trainer(method, net or MLP(SIZES, seed=4), seed=5)


def layout(arr):
    """``"F"`` if column-major (so also any 1-wide array), else ``"C"``."""
    if arr.flags.f_contiguous:
        return "F"
    return "C" if arr.flags.c_contiguous else "strided"


def params(net):
    return [a for layer in net.layers for a in (layer.W, layer.b)]


def assert_column_major(net):
    for i, layer in enumerate(net.layers):
        assert layer.W.flags.f_contiguous, f"layer {i}"
        assert not layer.W.flags.c_contiguous, f"layer {i}"


def spy_updates(trainer):
    """Log ``(key, param layout, grad layout)`` of every 2-D gradient.

    Wraps ``update`` on the optimiser instance only, as perfbench does;
    the class and every other trainer stay untouched.
    """
    seen = []
    inner = trainer.optimizer.update

    def update(key, param, grad, index=None):
        if np.ndim(grad) == 2:
            seen.append((key, layout(param), layout(grad)))
        return inner(key, param, grad, index=index)

    trainer.optimizer.update = update
    return seen


@pytest.mark.parametrize("batch", [1, 20])
@pytest.mark.parametrize("method", METHODS)
def test_trainers_keep_weights_and_gradients_column_major(
    method, batch, data, tmp_path
):
    x, y = data
    trainer = build(method)
    assert_column_major(trainer.net)
    seen = spy_updates(trainer)
    trainer.fit(x, y, epochs=1, batch_size=batch, checkpoint_dir=tmp_path)
    assert_column_major(trainer.net)
    assert {key for key, _, _ in seen} == {("W", i) for i in range(3)}
    assert all(p == g == "F" for _, p, g in seen), sorted(set(seen))

    # The checkpoint holds W{i} at its logical shape; restoring it (the
    # run is already complete, so fit only restores) lands column-major.
    resumed = build(method)
    resumed.fit(x, y, epochs=1, batch_size=batch, checkpoint_dir=tmp_path)
    assert_column_major(resumed.net)
    for a, b in zip(params(trainer.net), params(resumed.net)):
        np.testing.assert_array_equal(a, b)


def test_servable_freezes_trained_weights_row_major():
    head = MLP([48, 16, 3], seed=1)
    build("standard", head)
    assert_column_major(head)
    ServableModel(head)
    for layer in head.layers:
        assert layer.W.flags.c_contiguous
        assert not layer.W.flags.writeable and not layer.b.flags.writeable


@pytest.mark.parametrize("method", METHODS)
def test_trainer_refuses_a_servables_network(method, data):
    x, y = data
    net = MLP(SIZES, seed=4)
    build("standard", net).fit(x, y, epochs=1, batch_size=20)
    servable = ServableModel(net)
    frozen = params(net)
    with pytest.raises(ValueError, match="read-only") as err:
        build(method, net)
    assert "\n" not in str(err.value)
    after = params(net)
    assert all(a is b for a, b in zip(after, frozen))
    assert not any(a.flags.writeable for a in after)
    assert weights_digest(after) == servable.digest


def test_saved_trained_network_serves_row_major_with_the_same_digest(
    data, tmp_path
):
    x, y = data
    trainer = build("alsh")
    trainer.fit(x, y, epochs=1, batch_size=20)
    assert_column_major(trainer.net)
    row_major = [np.ascontiguousarray(a) for a in params(trainer.net)]
    servable = load_servable(save_mlp(trainer.net, tmp_path / "m"))
    for layer in servable.model.layers:
        assert layer.W.flags.c_contiguous
    assert servable.digest == weights_digest(row_major)
    # Serving the trainer's own (column-major) network pins the same digest.
    assert ServableModel(trainer.net).digest == servable.digest
