"""Trainer registry — one factory for every method the paper evaluates.

The paper's method labels carry a superscript for the batching regime
(e.g. MC-approxM for minibatch, MC-approxS for stochastic); here the
regime is the ``batch_size`` passed to :meth:`Trainer.fit`, so the registry
only names the five algorithms.
"""

from __future__ import annotations

from typing import Dict, Optional, Type

from ..nn.network import MLP
from .adaptive_dropout import AdaptiveDropoutTrainer
from .alsh_approx import ALSHApproxTrainer
from .base import Trainer
from .dropout import DropoutTrainer
from .mc_approx import MCApproxTrainer
from .standard import StandardTrainer
from .topk_approx import TopKApproxTrainer

__all__ = ["TRAINERS", "trainer_names", "make_trainer"]

TRAINERS: Dict[str, Type[Trainer]] = {
    StandardTrainer.name: StandardTrainer,
    DropoutTrainer.name: DropoutTrainer,
    AdaptiveDropoutTrainer.name: AdaptiveDropoutTrainer,
    ALSHApproxTrainer.name: ALSHApproxTrainer,
    MCApproxTrainer.name: MCApproxTrainer,
    TopKApproxTrainer.name: TopKApproxTrainer,
}


def trainer_names():
    """Method names, in the paper's presentation order."""
    return list(TRAINERS)


def make_trainer(
    name: str, network: MLP, seed: Optional[int] = None, **kwargs
) -> Trainer:
    """Build a trainer by name with method-specific keyword arguments.

    >>> net = MLP([10, 32, 3], seed=0)
    >>> make_trainer("standard", net, lr=1e-3).name
    'standard'
    """
    try:
        cls = TRAINERS[name]
    except KeyError:
        raise ValueError(
            f"unknown trainer {name!r}; available: {trainer_names()}"
        ) from None
    return cls(network, seed=seed, **kwargs)
