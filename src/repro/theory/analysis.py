"""Empirical layerwise error measurement on live networks.

§7's theory assumes a linear activation and exact active-node detection;
this module measures the same quantity — the relative activation-estimation
error per hidden layer — on real (ReLU) networks under the methods
themselves: a trainer's sampled forward (``probe_approx_forward``, what
:class:`~repro.obs.probes.ForwardErrorProbe` reads) against its exact one.
Top-k gives the oracle selector, ALSH-approx its live hash tables, dropout
the blind baseline, and MC-approx under ``approximate_forward`` the
unbiased Bernoulli estimator of §10.1.  The error-propagation bench uses
it to show the theory's exponential growth shows up in practice.
"""

from __future__ import annotations

import numpy as np

__all__ = ["layerwise_error"]


def layerwise_error(
    trainer, x: np.ndarray, rng: np.random.Generator, trials: int = 1
) -> np.ndarray:
    """Mean relative error ‖â^k − a^k‖/‖a^k‖ per hidden layer.

    ``â^k`` is hidden layer ``k`` under ``trainer.probe_approx_forward``,
    which feeds each layer the previous layer's estimate (errors
    compound, as in Lemma 7.1), and ``a^k`` the same layer under
    ``trainer.probe_exact_forward``.  Averaged over the rows of ``x`` and
    ``trials`` independent approximate passes drawn from ``rng``; a row
    whose exact activation vanishes counts 0 if its estimate vanishes
    too, else 1.  Runs inside ``trainer.probe_scope()``, as the probe
    manager runs probes, so measuring changes no trainer state, RNG
    stream or work counter.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    with trainer.probe_scope():
        exact = trainer.probe_exact_forward(x)[:-1]
        if not exact:
            raise ValueError("network has no hidden layers to measure")
        totals = np.zeros(len(exact))
        for _ in range(trials):
            approx = trainer.probe_approx_forward(x, rng)
            for k, (a_hat, a) in enumerate(zip(approx, exact)):
                norm = np.linalg.norm(a, axis=1)
                err = np.linalg.norm(a_hat - a, axis=1)
                # Where a row's exact activation vanishes, err is ‖â‖.
                rel = np.divide(err, norm, out=(err > 0) * 1.0, where=norm > 0)
                totals[k] += rel.mean()
    return totals / trials
