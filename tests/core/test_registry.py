"""Tests for the trainer registry."""

import numpy as np
import pytest

from repro.core.registry import TRAINERS, make_trainer, trainer_names
from repro.core.standard import StandardTrainer
from repro.nn.network import MLP


def test_registered_methods():
    """The paper's five methods plus the top-k oracle ablation trainer."""
    assert trainer_names() == [
        "standard",
        "dropout",
        "adaptive_dropout",
        "alsh",
        "mc",
        "topk",
    ]


@pytest.mark.parametrize("name", list(TRAINERS))
def test_factory_builds_each(name):
    net = MLP([10, 16, 3], seed=0)
    trainer = make_trainer(name, net, lr=1e-3, seed=1)
    assert trainer.name == name
    assert trainer.net is net


@pytest.mark.parametrize(
    "alias,canonical",
    [
        ("alsh_approx", "alsh"),
        ("alsh-approx", "alsh"),
        ("mc_approx", "mc"),
        ("mc-approx", "mc"),
        ("adaptive-dropout", "adaptive_dropout"),
        ("topk_approx", "topk"),
    ],
)
def test_aliases(alias, canonical):
    """Each method has one name: a former alias is refused, and the
    error lists the name to use instead."""
    net = MLP([10, 8, 3], seed=0)
    with pytest.raises(
        ValueError, match=f"unknown trainer '{alias}'; available: .*'{canonical}'"
    ):
        make_trainer(alias, net)


def test_kwargs_forwarded():
    net = MLP([10, 8, 3], seed=0)
    trainer = make_trainer("dropout", net, keep_prob=0.42)
    assert trainer.keep_prob == 0.42


def test_unknown_method():
    with pytest.raises(ValueError, match="unknown trainer"):
        make_trainer("slide", MLP([4, 3, 2], seed=0))


def test_standard_is_default_reference():
    assert TRAINERS["standard"] is StandardTrainer


@pytest.mark.parametrize(
    "name, kwargs",
    [pytest.param(name, {}, id=name) for name in trainer_names()]
    + [pytest.param("alsh", {"batch_mode": "union"}, id="alsh-union")],
)
def test_empty_batch_refused_before_any_state_changes(name, kwargs):
    """A zero-row batch raises ``ValueError("empty batch")`` and leaves
    the weights, Adam's slots, RNG and method state as they were."""
    rng = np.random.default_rng(3)
    trainer = make_trainer(
        name, MLP([8, 6, 6, 3], seed=0), seed=1, optimizer="adam", **kwargs
    )
    trainer.train_batch(rng.normal(size=(4, 8)), rng.integers(0, 3, size=4))
    payload, arrays = trainer._state()
    with pytest.raises(ValueError, match="empty batch"):
        trainer.train_batch(np.zeros((0, 8)), np.zeros(0, dtype=int))
    after_payload, after_arrays = trainer._state()
    assert after_payload == payload
    assert after_arrays.keys() == arrays.keys()
    assert any(key.startswith("opt") for key in arrays)
    for key, value in arrays.items():
        assert after_arrays[key].tobytes() == value.tobytes(), key
