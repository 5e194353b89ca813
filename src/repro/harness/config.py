"""Experiment configuration with the paper's defaults (§8.4).

An :class:`ExperimentConfig` pins everything that varies across the
paper's tables and figures: dataset, method, depth, width, batching regime
and learning rate.  :meth:`ExperimentConfig.paper_default` applies §8.4's
method-specific settings — Adam for ALSH-approx, lr 1e-4 for stochastic
MC-approx, keep probability 0.05 for the dropout family.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from typing import Dict

__all__ = ["ExperimentConfig"]


@dataclass
class ExperimentConfig:
    """One fully specified training run.

    ``method_kwargs`` are forwarded to the trainer constructor (beyond
    ``lr``/``optimizer``/``seed``, which have their own fields).
    """

    method: str = "standard"
    dataset: str = "mnist"
    data_scale: float = 0.02
    hidden_layers: int = 3
    hidden_width: int = 100
    epochs: int = 3
    batch_size: int = 20
    lr: float = 1e-3
    optimizer: str = "sgd"
    seed: int = 0
    method_kwargs: Dict = field(default_factory=dict)

    def __post_init__(self):
        if self.hidden_layers < 0:
            raise ValueError(f"hidden_layers must be >= 0, got {self.hidden_layers}")
        if self.hidden_width <= 0:
            raise ValueError(f"hidden_width must be positive, got {self.hidden_width}")
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if not 0.0 < self.data_scale <= 1.0:
            raise ValueError(f"data_scale must be in (0, 1], got {self.data_scale}")

    @property
    def is_stochastic(self) -> bool:
        """True for the paper's "S" (batch size 1) regime."""
        return self.batch_size == 1

    def label(self) -> str:
        """Paper-style label, e.g. ``mc^M`` or ``alsh^S``."""
        suffix = "S" if self.is_stochastic else "M"
        return f"{self.method}^{suffix}"

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    def key(self) -> str:
        """A stable identity string covering every field.

        Sweeps and the executor's result sink use this to match a stored
        result back to its configuration, so resume works across runs.
        """
        payload = asdict(self)
        # The removed ``backend`` field stays in the key, so stored sweep
        # records and checkpoint tags written before its removal still match.
        payload["backend"] = None
        payload["method_kwargs"] = sorted(payload["method_kwargs"].items())
        return repr(sorted(payload.items()))

    def checkpoint_tag(self) -> str:
        """Filesystem-safe checkpoint file tag, unique per config.

        Derived from :meth:`key` so two different configs sharing a
        checkpoint directory can never clobber each other's checkpoints.
        """
        digest = hashlib.sha1(self.key().encode()).hexdigest()[:16]
        return f"{self.method}-{digest}"

    @classmethod
    def paper_default(
        cls,
        method: str,
        batch_size: int = 20,
        **overrides,
    ) -> "ExperimentConfig":
        """§8.4 defaults for a method in the given batching regime.

        * lr 1e-3 everywhere except stochastic MC-approx (1e-4, the §9.3
          overfitting fix);
        * Adam for ALSH-approx, SGD otherwise;
        * keep probability p = 0.05 for Dropout / Adaptive-Dropout;
        * MC-approx sampling budget k = 10.
        """
        cfg = cls(method=method, batch_size=batch_size)
        if method == "alsh":
            cfg = cfg.with_overrides(optimizer="adam")
        elif method == "mc":
            if batch_size == 1:
                cfg = cfg.with_overrides(lr=1e-4)
            cfg = cfg.with_overrides(method_kwargs={"k": 10})
        elif method == "dropout":
            cfg = cfg.with_overrides(method_kwargs={"keep_prob": 0.05})
        elif method == "adaptive_dropout":
            cfg = cfg.with_overrides(method_kwargs={"target_keep": 0.05})
        elif method != "standard":
            raise ValueError(f"method {method!r} has no §8.4 paper defaults")
        if overrides:
            method_kwargs = overrides.pop("method_kwargs", None)
            if method_kwargs is not None:
                merged = dict(cfg.method_kwargs)
                merged.update(method_kwargs)
                cfg = cfg.with_overrides(method_kwargs=merged)
            cfg = cfg.with_overrides(**overrides)
        return cfg
