"""§7 empirical check: measured layerwise error growth on live networks.

Measures the relative activation-estimation error per hidden layer under
three ways of sampling from the current layer at one budget — ALSH-approx
on its live hash index, the top-k oracle (perfect MIPS) and dropout (blind
to the data) — through each trainer's own sampled forward, and prints them
next to the Theorem 7.2 closed form.  Shape: all three compound with depth;
ALSH tracks the oracle far better than dropout, but compounding is
inherent to the approach.
"""

import numpy as np

from repro.core.alsh_approx import ALSHApproxTrainer
from repro.core.dropout import DropoutTrainer
from repro.core.mc_approx import MCApproxTrainer
from repro.core.topk_approx import TopKApproxTrainer
from repro.harness.reporting import format_series
from repro.nn.network import MLP
from repro.theory.analysis import layerwise_error
from repro.theory.error_propagation import error_ratio
from repro.theory.mc_propagation import relative_variance_growth

DEPTH = 6
WIDTH = 96
INPUT = 64
BUDGET = 0.25


def run_measurement():
    rng = np.random.default_rng(0)
    net = MLP([INPUT] + [WIDTH] * DEPTH + [10], seed=1)
    x = rng.normal(size=(25, INPUT))
    oracle = TopKApproxTrainer(net, active_frac=BUDGET)
    alsh = ALSHApproxTrainer(
        net, seed=2, min_active_frac=BUDGET, max_active_frac=BUDGET
    )
    dropout = DropoutTrainer(net, keep_prob=BUDGET)
    series = {
        "oracle top-k": layerwise_error(oracle, x, np.random.default_rng(3)),
        "ALSH (K=6, L=5)": layerwise_error(alsh, x, np.random.default_rng(3)),
        "dropout (blind)": layerwise_error(dropout, x, np.random.default_rng(3)),
        "Thm 7.2 (c=5), scaled": np.array(
            [error_ratio(5.0, k) for k in range(1, DEPTH + 1)]
        ),
    }
    return series


def test_ablation_error_propagation(benchmark, capsys):
    series = benchmark.pedantic(run_measurement, iterations=1, rounds=1)
    with capsys.disabled():
        print()
        print(
            format_series(
                "hidden layer",
                list(range(1, DEPTH + 1)),
                series,
                title="§7 empirical check: relative activation error per "
                f"layer (budget {BUDGET:.0%} of nodes)",
            )
        )
    oracle = series["oracle top-k"]
    alsh = series["ALSH (K=6, L=5)"]
    random = series["dropout (blind)"]
    # Compounding: the deep end is worse than the shallow end everywhere.
    for name, s in (("oracle", oracle), ("alsh", alsh), ("random", random)):
        assert s[-1] > s[0], name
    # Selector quality ordering: oracle <= alsh-ish < random at layer 1.
    assert oracle[0] <= alsh[0] + 0.05
    assert alsh[0] < random[0]


def run_mc_variance():
    """Unbiased-estimator analogue: MC forward error vs the (1+ρ)^k law."""
    rng = np.random.default_rng(0)
    net = MLP([INPUT] + [WIDTH] * DEPTH + [10], seed=3)
    x = rng.normal(size=(15, INPUT))
    mc = MCApproxTrainer(
        net, node_frac=0.2, min_node_samples=1, approximate_forward=True
    )
    measured = layerwise_error(mc, x, np.random.default_rng(4), trials=10)
    # Fit the per-layer rate from the first layer's error and compare the
    # closed-form *shape* against the measured chain.
    rho = measured[0] ** 2
    predicted = np.array(
        [np.sqrt(relative_variance_growth(rho, k)) for k in range(1, DEPTH + 1)]
    )
    return measured, predicted


def test_ablation_mc_forward_variance(benchmark, capsys):
    measured, predicted = benchmark.pedantic(
        run_mc_variance, iterations=1, rounds=1
    )
    with capsys.disabled():
        print()
        print(
            format_series(
                "hidden layer",
                list(range(1, DEPTH + 1)),
                {
                    "measured MC forward error": measured,
                    "(1+rho)^k law (rho fit at layer 1)": predicted,
                },
                title="Unbiased-estimator variance propagation "
                "(the §10.1 failure, quantified)",
            )
        )
    # Compounding: error strictly larger at the deep end.
    assert measured[-1] > measured[0]
    # The closed form tracks the measured growth within a factor of ~2.5
    # (ReLU clipping damps the linear-chain law).
    ratio = measured[-1] / predicted[-1]
    assert 0.3 < ratio < 3.0
