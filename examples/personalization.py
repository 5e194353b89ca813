"""On-device personalisation (§2): fine-tune and *serve* per-user models.

The paper motivates CPU training with client-side personalisation: a
base model ships to devices, and each device fine-tunes on its own data
— privately, offline, without a GPU.  This example plays that out in
two acts:

1. **Fine-tune** (the training story): train a base model on the global
   MNIST-like distribution, save it (`repro.nn.serialize`), shift a
   "user's" distribution (dead sensor pixels + label skew), and compare
   STANDARD vs MC-approx vs ALSH-approx fine-tuning — the §10.4
   decision-tree trade-off.
2. **Serve** (the serving story, `repro.serve`): fine-tune a small
   per-user *head* on top of the frozen shared trunk for several users,
   register the base checkpoint in a `ModelRegistry` (digest-pinned),
   persist each head as its own checkpoint, and answer a skewed request
   stream through a `TenantHeadCache` that holds only a few heads in
   memory, evicting the least recently used.

Run:
    python examples/personalization.py            # both acts
    python examples/personalization.py --quick    # small, CI-sized run
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from repro import MLP, load_benchmark, make_trainer
from repro.data.corruptions import with_class_imbalance, with_dead_features
from repro.harness.reporting import format_table
from repro.nn.serialize import load_mlp, save_mlp
from repro.obs import InMemoryRecorder
from repro.serve import ModelRegistry, ServableModel, TenantHeadCache


def make_user_data(data, seed):
    """A device user's shifted distribution: dead pixels + class skew.

    Derived from the *global* dataset (same underlying task), so the
    shipped base model is meaningfully related to the user's data.
    """
    data = with_dead_features(data, 0.25, seed=seed)
    data = with_class_imbalance(data, 0.3, minority_classes=2, seed=seed)
    return data


def make_tenant(data, idx, hot=0.9, n_train=160, n_test=60):
    """A serving tenant: global task, traffic skewed to favourite classes.

    90% of the tenant's rows come from two favourite classes — the
    shift a cheap head-only fine-tune on a frozen trunk *can* adapt to
    (unlike input corruption, which changes the trunk's features).
    Rows are drawn with replacement so the skew holds even when the
    favourite classes have few rows in the global pool.
    """
    rng = np.random.default_rng(40 + idx)
    favourites = rng.choice(data.n_classes, size=2, replace=False)

    def skewed(x, y, n):
        fav = np.isin(y, favourites)
        weights = np.where(fav, hot / max(fav.sum(), 1),
                           (1 - hot) / max((~fav).sum(), 1))
        pick = rng.choice(len(y), size=n, replace=True,
                          p=weights / weights.sum())
        return x[pick], y[pick]

    x_train, y_train = skewed(data.x_train, data.y_train, n_train)
    x_test, y_test = skewed(data.x_test, data.y_test, n_test)
    return {
        "favourites": sorted(int(c) for c in favourites),
        "x_train": x_train, "y_train": y_train,
        "x_test": x_test, "y_test": y_test,
    }


def compare_fine_tuning(model_path, user, tune_epochs):
    """Act 1: whole-model fine-tuning, STANDARD vs MC vs ALSH."""
    base_acc = float(
        (load_mlp(model_path).predict(user.x_test) == user.y_test).mean()
    )
    print(f"base model on the user's distribution: {base_acc:.3f}\n")

    rows = [["base model (no fine-tune)", base_acc, 0.0]]
    settings = [
        ("standard", 20, 1e-2, {}),
        ("mc", 20, 1e-2, {"k": 10}),
        ("alsh", 1, 1e-3, {"optimizer": "adam"}),
    ]
    for method, batch, lr, kwargs in settings:
        device_model = load_mlp(model_path)  # fresh copy per device
        trainer = make_trainer(method, device_model, lr=lr, seed=3, **kwargs)
        history = trainer.fit(
            user.x_train, user.y_train,
            epochs=tune_epochs, batch_size=batch,
        )
        acc = float((trainer.predict(user.x_test) == user.y_test).mean())
        rows.append([f"fine-tuned with {method}", acc, history.total_time])

    print(
        format_table(
            ["model", "user-test accuracy", "fine-tune time (s)"],
            rows,
            title="Personalisation: base model vs on-device fine-tuning",
        )
    )
    print(
        "\nShape to expect: fine-tuning recovers the accuracy the shifted\n"
        "distribution costs the base model; MC-approx matches exact\n"
        "fine-tuning; ALSH-approx pays heavily in time without parallel\n"
        "hardware (§10.4).\n"
    )


def tune_user_head(trunk, user, tune_epochs, seed):
    """Fine-tune one tenant's head on frozen trunk features.

    The head starts from the shared output layer and trains as a
    single-layer MLP on the trunk's activations — the cheap per-user
    update the multi-tenant serving story assumes.  Head-only epochs are
    nearly free (the features are trunk-width, computed once), so the
    head gets many more passes than a whole-model fine-tune would.
    """
    base_out = trunk.output_layer()
    head = MLP([base_out.W.shape[0], base_out.W.shape[1]], seed=seed)
    head.layers[0].W = base_out.W.copy()
    head.layers[0].b = base_out.b.copy()
    features = trunk.trunk_forward(user["x_train"])
    make_trainer("standard", head, lr=1e-2, seed=seed).fit(
        features, user["y_train"], epochs=10 * tune_epochs, batch_size=20,
    )
    return head


def serve_tenants(base_path, users, head_dir, capacity, requests, tune_epochs,
                  seed=0):
    """Act 2: per-user heads over the shared trunk, LRU head cache."""
    recorder = InMemoryRecorder()
    registry = ModelRegistry()
    trunk = registry.register("base", base_path)
    # A second register with the digest pin: deploys verify the artifact.
    registry.register("base", base_path, version=trunk.digest)
    print(f"registry: base model {trunk.name}@{trunk.version}")

    head_paths = {}
    for idx, (tenant, user) in enumerate(sorted(users.items())):
        head = tune_user_head(trunk, user, tune_epochs, seed=100 + idx)
        head_paths[tenant] = save_mlp(head, Path(head_dir) / f"head_{tenant}")
    print(f"{len(head_paths)} per-user heads checkpointed, "
          f"cache capacity {capacity}")

    def load_head(tenant):
        return ServableModel(load_mlp(head_paths[tenant]), name=f"head-{tenant}")

    cache = TenantHeadCache(capacity, load_head, recorder=recorder)

    # Zipf-skewed traffic: a couple of hot users, a long cold tail.
    rng = np.random.default_rng(seed)
    tenants = sorted(users)
    weights = 1.0 / np.arange(1, len(tenants) + 1)
    weights /= weights.sum()
    correct = base_correct = total = 0
    for _ in range(requests):
        tenant = tenants[rng.choice(len(tenants), p=weights)]
        user = users[tenant]
        i = rng.integers(len(user["y_test"]))
        x = user["x_test"][i:i + 1]
        truth = int(user["y_test"][i])
        features = trunk.trunk_forward(x)
        pred = int(np.argmax(cache.get(tenant).predict_logproba(features)))
        correct += pred == truth
        base_correct += int(trunk.predict(x)[0]) == truth
        total += 1

    stats = cache.stats()
    print(
        format_table(
            ["metric", "value"],
            [
                ["requests served", total],
                ["base-model accuracy", base_correct / total],
                ["personalised accuracy", correct / total],
                ["head cache hit rate", stats["hit_rate"]],
                ["heads loaded (misses)", stats["misses"]],
                ["heads evicted", stats["evictions"]],
                ["heads resident", stats["resident"]],
            ],
            title=f"Multi-tenant serving: {len(tenants)} users, "
                  f"{capacity} heads resident",
        )
    )
    snapshot = recorder.snapshot()
    print(f"serve.tenant.* counters: {sorted(k for k in snapshot['counters'])}")
    assert stats["resident"] <= capacity
    assert stats["hit_rate"] > 0, "skewed traffic must hit the cache"
    return stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run: skip the fine-tuning method "
                             "comparison, shrink data and traffic")
    args = parser.parse_args(argv)

    base_epochs = 3 if args.quick else 6
    tune_epochs = 2 if args.quick else 3
    scale = 0.015 if args.quick else 0.02
    n_users = 4 if args.quick else 6
    requests = 60 if args.quick else 300
    width = 64 if args.quick else 96

    global_data = load_benchmark("mnist", scale=scale, seed=0)
    print(f"global data: {global_data.describe()}")

    base = MLP(
        [global_data.input_dim, width, width, global_data.n_classes], seed=1
    )
    make_trainer("standard", base, lr=1e-2, seed=2).fit(
        global_data.x_train, global_data.y_train,
        epochs=base_epochs, batch_size=20,
    )
    with tempfile.TemporaryDirectory() as tmp:
        model_path = save_mlp(base, Path(tmp) / "base_model")
        print(f"base model saved ({model_path.stat().st_size // 1024} KB)\n")

        if not args.quick:
            compare_fine_tuning(
                model_path, make_user_data(global_data, seed=7), tune_epochs
            )
        users = {
            f"user{u}": make_tenant(global_data, u) for u in range(n_users)
        }
        serve_tenants(
            model_path, users, head_dir=tmp,
            capacity=2 if args.quick else 3,
            requests=requests, tune_epochs=tune_epochs,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
