"""Ablation: ALSH-approx hash-table rebuild schedule (§9.2 design choice).

The reference implementation rebuilds every 100 samples early, backing off
to every 1000 — "to avoid time-consuming table reconstructions".  This
ablation sweeps the rebuild period and reports accuracy vs training time:
frequent rebuilds cost time; never rebuilding leaves the tables querying
stale weight columns.
"""

from conftest import train_and_eval

from repro.harness.reporting import format_table
from repro.lsh.rebuild import RebuildScheduler

MAX_TRAIN = 300
EPOCHS = 2
SCHEDULES = [
    ("every 10", (10, 10, 0)),
    ("every 100", (100, 100, 0)),
    ("paper (100 -> 1000)", (100, 1000, 10_000)),
    ("never", (10**9, 10**9, 0)),
]


def run_sweep(mnist):
    rows = []
    for label, periods in SCHEDULES:
        scheduler = RebuildScheduler(*periods)
        trainer, history, acc = train_and_eval(
            "alsh", mnist, depth=2, batch=1, lr=1e-3, epochs=EPOCHS,
            max_train=MAX_TRAIN, optimizer="adam", rebuild=scheduler,
        )
        rows.append(
            [label, acc, history.total_time, scheduler.rebuild_count,
             trainer.rehashed_columns]
        )
    return rows


def test_ablation_rebuild_schedule(benchmark, capsys, mnist):
    rows = benchmark.pedantic(run_sweep, args=(mnist,), iterations=1, rounds=1)
    with capsys.disabled():
        print()
        print(
            format_table(
                ["rebuild schedule", "accuracy", "train time (s)",
                 "rebuilds", "columns re-hashed"],
                rows,
                title="ALSH-approx rebuild-schedule ablation (§9.2)",
            )
        )
    by_label = {r[0]: r for r in rows}
    # More frequent rebuilds mean more rebuild events and more table-
    # maintenance work (re-hashed columns) — deterministic counters, since
    # wall time at these run lengths is too noisy to order reliably.
    assert by_label["every 10"][3] > by_label["every 100"][3]
    assert by_label["every 10"][4] > by_label["every 100"][4]
    assert by_label["never"][3] == 0
    assert by_label["never"][4] == 0


def run_drift_comparison(mnist):
    """Extension beyond the paper: drift-aware re-hashing (repro.lsh.drift)
    vs the re-hash-all-touched reference behaviour."""
    rows = []
    for label, threshold in [("rehash all touched (paper)", None),
                             ("drift > 0.05", 0.05),
                             ("drift > 0.25", 0.25)]:
        trainer, history, acc = train_and_eval(
            "alsh", mnist, depth=2, batch=1, lr=1e-3, epochs=EPOCHS,
            max_train=MAX_TRAIN, optimizer="adam",
            rebuild=RebuildScheduler(50, 50, 0),
            drift_threshold=threshold,
        )
        rows.append([label, acc, trainer.rehashed_columns])
    return rows


def test_ablation_drift_rebuild(benchmark, capsys, mnist):
    rows = benchmark.pedantic(
        run_drift_comparison, args=(mnist,), iterations=1, rounds=1
    )
    with capsys.disabled():
        print()
        print(
            format_table(
                ["policy", "accuracy", "columns re-hashed"],
                rows,
                title="Drift-aware table maintenance (extension; threshold 0 "
                "= paper behaviour)",
            )
        )
    by_label = {r[0]: r for r in rows}
    # Drift filtering strictly reduces maintenance work...
    assert (
        by_label["drift > 0.25"][2]
        < by_label["rehash all touched (paper)"][2]
    )
    # ...monotonically in the threshold.
    assert by_label["drift > 0.25"][2] <= by_label["drift > 0.05"][2]
