"""Variance propagation for *unbiased* feedforward approximation.

Theorem 7.2 covers ALSH-approx, whose truncation estimator is biased.
MC-approx's Bernoulli estimator is unbiased — so why does feedforward
approximation fail for it too (§10.1)?  Because variance compounds the
same way bias does: for a linear chain where each layer's product is
estimated independently with relative variance ρ (Var[ẑ]/z² per unit of
signal), the end-to-end relative variance after k layers is

    (1 + ρ)^k − 1,

the exact multiplicative analogue of Theorem 7.2's ((c+1)/c)^k − 1.  An
unbiased estimator whose *input* is already noisy is no longer unbiased
about the true activations — it is unbiased about the noisy chain — and a
single forward pass samples one realisation of exponentially growing
noise.  This module provides the closed form; the real (ReLU, Eq. 7-sampled)
chain is measured by :func:`repro.theory.analysis.layerwise_error` on an
:class:`~repro.core.mc_approx.MCApproxTrainer` built with
``approximate_forward=True``, so the two can be compared.
"""

from __future__ import annotations

__all__ = ["relative_variance_growth"]


def relative_variance_growth(rho: float, k: int) -> float:
    """Compounded relative variance after k independently estimated layers.

    ``rho`` is the per-layer relative variance added by the estimator;
    the chain's relative variance is (1 + ρ)^k − 1 (for linear layers,
    independent sampling per layer).
    """
    if rho < 0:
        raise ValueError(f"rho must be non-negative, got {rho}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return (1.0 + rho) ** k - 1.0
