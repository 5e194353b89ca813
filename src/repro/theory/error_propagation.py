"""The paper's §7 negative result, in executable form.

For a linear network whose active nodes are detected exactly and where, at
every node, the weighted sum over active nodes is ``c`` times that over the
inactive nodes, Theorem 7.2 proves

    a^k = â^k · ((c+1)/c)^k     ⟺     ε^k / â^k = ((c+1)/c)^k − 1,

i.e. the relative estimation error grows *exponentially* with depth.  This
module provides the closed form, the §7 numeric table (c = 5, k = 1..6 →
0.2, 0.44, 0.72, 1.07, 1.48, 1.98), and an exact simulator of Lemma 7.1's
recursion on arbitrary linear networks so the closed form can be validated
against first principles.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

__all__ = [
    "error_ratio",
    "error_ratio_table",
    "depth_at_error_ratio",
    "LinearErrorModel",
]


def error_ratio(c: float, k: int) -> float:
    """Theorem 7.2 closed form: ε^k/â^k = ((c+1)/c)^k − 1.

    ``c`` is the active-to-inactive weighted-sum ratio; ``k`` the number of
    layers the error has propagated through.
    """
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return ((c + 1.0) / c) ** k - 1.0


def error_ratio_table(c: float = 5.0, max_k: int = 6) -> np.ndarray:
    """The §7 table of error-to-estimate ratios for k = 1..max_k."""
    return np.array([error_ratio(c, k) for k in range(1, max_k + 1)])


def depth_at_error_ratio(c: float, threshold: float = 1.0) -> int:
    """Smallest depth k at which the error ratio exceeds ``threshold``.

    With the paper's c = 5 and threshold 1.0 (error dominates estimate)
    this returns 4 — "as soon as the depth gets larger than 3, the
    estimation error dominates the estimation value".
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    ratio = np.log1p(threshold) / np.log((c + 1.0) / c)
    return int(np.ceil(ratio + 1e-12))


class LinearErrorModel:
    """Exact simulator of the Lemma 7.1 error recursion.

    Models a linear-activation network (a = z) in which every node's active
    set is chosen by a selector and the estimate â sums only over the active
    nodes, exactly as ALSH-approx does when "the active nodes are detected
    exactly".  Tracks the true activations ``a^k``, the estimates ``â^k``
    and the errors ``ε^k = a^k − â^k`` layer by layer, so both branches of
    Lemma 7.1 and the Theorem 7.2 closed form can be checked numerically.

    Parameters
    ----------
    weights:
        List of weight matrices ``W^k`` (``n_{k-1} × n_k``).
    selector:
        ``selector(layer_idx, node_idx, contributions) -> active row ids``
        where ``contributions[i] = â_i^{k-1} W^k_{i,j}``.  Defaults to
        keeping the top ``active_frac`` fraction by |contribution| (the
        "detected exactly" assumption).
    active_frac:
        Fraction of incoming nodes kept by the default selector.
    """

    def __init__(
        self,
        weights: Sequence[np.ndarray],
        selector: Optional[Callable[[int, int, np.ndarray], np.ndarray]] = None,
        active_frac: float = 0.5,
    ):
        weights = [np.atleast_2d(np.asarray(w, dtype=float)) for w in weights]
        for a, b in zip(weights[:-1], weights[1:]):
            if a.shape[1] != b.shape[0]:
                raise ValueError(
                    f"chained weight shapes mismatch: {a.shape} vs {b.shape}"
                )
        if not 0.0 < active_frac <= 1.0:
            raise ValueError(f"active_frac must be in (0, 1], got {active_frac}")
        self.weights = weights
        self.active_frac = float(active_frac)
        self.selector = selector if selector is not None else self._topk_selector

    def _topk_selector(
        self, layer_idx: int, node_idx: int, contributions: np.ndarray
    ) -> np.ndarray:
        n = contributions.size
        keep = max(1, int(round(self.active_frac * n)))
        return np.argpartition(-np.abs(contributions), keep - 1)[:keep]

    def run(self, x: np.ndarray):
        """Propagate an input; returns (exact, estimates, errors) per layer.

        ``exact[k]``, ``estimates[k]`` and ``errors[k]`` are the vectors
        ``a^{k+1}``, ``â^{k+1}`` and ``ε^{k+1}`` of the paper's notation
        (0-indexed lists over layers).
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.weights[0].shape[0]:
            raise ValueError(
                f"input dim {x.size} != first layer fan-in "
                f"{self.weights[0].shape[0]}"
            )
        a_true = x
        a_hat = x
        exact: List[np.ndarray] = []
        estimates: List[np.ndarray] = []
        errors: List[np.ndarray] = []
        for k, w in enumerate(self.weights):
            n_out = w.shape[1]
            z_true = a_true @ w
            z_hat = np.empty(n_out)
            for j in range(n_out):
                contrib = a_hat * w[:, j]
                active = self.selector(k, j, contrib)
                z_hat[j] = contrib[active].sum()
            a_true, a_hat = z_true, z_hat
            exact.append(a_true.copy())
            estimates.append(a_hat.copy())
            errors.append(a_true - a_hat)
        return exact, estimates, errors
