"""Theorem 7.2 end to end: closed form vs simulation vs live network.

Three views of the same phenomenon — feedforward approximation error
compounds exponentially with depth:

1. the closed-form table from §7 (c = 5);
2. the Lemma 7.1 recursion simulated exactly on a constructed linear
   network where the active/inactive ratio c is controlled;
3. the measured layerwise activation error of a real ReLU network under
   the top-k oracle's sampled forward (perfect MIPS — the best case for
   ALSH-approx) vs dropout's (blind to the data) at the same budget.

Run:
    python examples/error_propagation_demo.py
"""

import numpy as np

from repro.core.dropout import DropoutTrainer
from repro.core.topk_approx import TopKApproxTrainer
from repro.harness.reporting import format_series, format_table
from repro.nn.network import MLP
from repro.theory.analysis import layerwise_error
from repro.theory.error_propagation import (
    LinearErrorModel,
    depth_at_error_ratio,
    error_ratio_table,
)


def closed_form():
    table = error_ratio_table(c=5.0, max_k=6)
    print(
        format_table(
            ["k"] + [str(k) for k in range(1, 7)],
            [["error/estimate"] + [f"{v:.2f}" for v in table]],
            title="Theorem 7.2 closed form, c = 5 (the paper's §7 table)",
        )
    )
    print(
        f"error dominates estimate from depth "
        f"{depth_at_error_ratio(5.0, 1.0)} onwards\n"
    )


def controlled_simulation():
    """All-ones network, keep half the incoming mass → c = 1, ratio 2^k."""
    n, depth = 16, 5
    weights = [np.ones((n, n)) for _ in range(depth)]
    model = LinearErrorModel(
        weights, selector=lambda layer, node, contrib: np.arange(n // 2)
    )
    exact, estimates, _ = model.run(np.ones(n))
    rows = []
    for k in range(depth):
        ratio = exact[k][0] / estimates[k][0]
        rows.append([k + 1, ratio, 2.0 ** (k + 1)])
    print(
        format_table(
            ["layer", "measured a/a_hat", "closed form (c=1): 2^k"],
            rows,
            title="Lemma 7.1 recursion on a controlled linear network",
        )
    )
    print()


def live_network():
    rng = np.random.default_rng(0)
    net = MLP([64] + [96] * 6 + [10], seed=1)
    x = rng.normal(size=(30, 64))
    budget = 0.3
    probe_rng = np.random.default_rng(2)
    oracle = layerwise_error(
        TopKApproxTrainer(net, active_frac=budget), x, probe_rng
    )
    blind = layerwise_error(DropoutTrainer(net, keep_prob=budget), x, probe_rng)
    print(
        format_series(
            "hidden layer",
            list(range(1, 7)),
            {
                f"oracle top-{int(budget*100)}% selector": oracle,
                "dropout (blind) selector": blind,
            },
            title=(
                "Relative activation error per layer on a live ReLU network\n"
                "(even perfect MIPS compounds; dropout is strictly worse)"
            ),
        )
    )


def main():
    closed_form()
    controlled_simulation()
    live_network()


if __name__ == "__main__":
    main()
