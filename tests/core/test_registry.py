"""Tests for the trainer registry."""

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
