"""Miniature end-to-end reproduction with persisted, resumable results.

Drives the sweep machinery over a small method × depth grid on the
MNIST-like benchmark (the heart of the paper's Figures 3/7), stores every
result in a JSON-lines file (re-running this script resumes rather than
recomputes), and renders a markdown report with the headline findings:
the ALSH depth collapse, MC-approx's scaling, and the §10.4
recommendation for each regime.

Run:
    python examples/full_reproduction.py [results.jsonl]
"""

import sys

from repro.data import load_benchmark
from repro.harness import (
    ExperimentConfig,
    Sweep,
    format_markdown_table,
    recommend_method,
)

DEPTHS = [1, 3, 5]
STORE_PATH = sys.argv[1] if len(sys.argv) > 1 else "full_reproduction.jsonl"


def main():
    data = load_benchmark("mnist", scale=0.01, seed=0)
    print(f"dataset: {data.describe()}")

    base = ExperimentConfig(
        dataset="mnist",
        data_scale=0.01,
        hidden_width=64,
        epochs=4,
        seed=0,
    )
    sweep = Sweep(
        base,
        {
            "method": ["standard", "mc", "alsh"],
            "hidden_layers": DEPTHS,
            "batch_size": [1],
        },
        paper_defaults=True,
    )
    print(f"running {len(sweep)} configurations (resumable via {STORE_PATH})")
    fresh = []
    results = sweep.run(
        store=STORE_PATH,
        dataset=data,
        callback=lambda r: (fresh.append(r), print("  " + r.summary()))[0],
    )
    print(f"{len(fresh)} fresh runs, {len(results) - len(fresh)} resumed\n")

    # Assemble the Figure 7-style depth table from the store.
    by_key = {(r.config.method, r.config.hidden_layers): r for r in results}
    rows = []
    for depth in DEPTHS:
        rows.append(
            [depth]
            + [by_key[(m, depth)].test_accuracy for m in ("standard", "mc", "alsh")]
            + [by_key[("alsh", depth)].pred_entropy]
        )
    report = [
        "# Miniature reproduction report",
        "",
        "## Accuracy vs depth (stochastic regime; cf. paper Figure 7)",
        "",
        format_markdown_table(
            ["hidden layers", "standard", "mc", "alsh", "alsh pred-entropy"],
            rows,
        ),
        "",
        "## §10.4 recommendations",
        "",
    ]
    for batch, depth, parallel in [(20, 3, False), (1, 3, True), (1, 7, True)]:
        rec = recommend_method(batch, depth, parallel)
        report.append(
            f"- batch {batch}, depth {depth}, parallel={parallel} → "
            f"**{rec.method}** ({rec.reason})"
        )
    text = "\n".join(report)
    print(text)
    out = STORE_PATH.replace(".jsonl", "_report.md")
    with open(out, "w", encoding="utf-8") as f:
        f.write(text + "\n")
    print(f"\nreport written to {out}")


if __name__ == "__main__":
    main()
