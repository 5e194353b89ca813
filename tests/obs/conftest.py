"""Shared machinery for the observability tests.

Every trainer is run twice on the tiny dataset with identical seeds —
once with the default :data:`~repro.obs.NULL_RECORDER` and once with an
:class:`~repro.obs.InMemoryRecorder` — and the resulting weight digests,
final metrics and counter snapshots feed both the bitwise no-op test and
the golden-trace regression tests.
"""

import hashlib

import numpy as np
import pytest

from repro.core import make_trainer
from repro.nn.network import MLP
from repro.obs import InMemoryRecorder
from repro.obs.probes import ProbeManager, default_probes

TRAINER_NAMES = ["standard", "dropout", "adaptive_dropout", "alsh", "mc", "topk"]

#: fixed-seed recipe shared by every run (matches the committed goldens).
SEED = 123
LAYER_SIZES = [64, 32, 32, 3]
EPOCHS = 2
BATCH_SIZE = 20


def weights_digest(net) -> str:
    """SHA-256 over the raw bytes of every parameter array, in order."""
    digest = hashlib.sha256()
    for layer in net.layers:
        digest.update(np.ascontiguousarray(layer.W).tobytes())
        digest.update(np.ascontiguousarray(layer.b).tobytes())
    return digest.hexdigest()


def run_trainer(name, dataset, recorder=None, probe_every=None):
    """One fixed-seed 2-epoch training run; returns (trainer, history)."""
    net = MLP(LAYER_SIZES, seed=SEED)
    trainer = make_trainer(name, net, seed=SEED, recorder=recorder)
    if probe_every is not None:
        trainer.attach_probes(
            ProbeManager(
                default_probes(),
                probe_every=probe_every,
                budget=None,
                seed=SEED,
            )
        )
    history = trainer.fit(
        dataset.x_train,
        dataset.y_train,
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        x_val=dataset.x_val,
        y_val=dataset.y_val,
    )
    return trainer, history


@pytest.fixture(scope="session")
def traced_runs(tiny_dataset):
    """Per-method results of the null-recorder and traced runs."""
    out = {}
    for name in TRAINER_NAMES:
        trainer_null, _ = run_trainer(name, tiny_dataset)
        trainer, history = run_trainer(name, tiny_dataset, InMemoryRecorder())
        out[name] = {
            "null_digest": weights_digest(trainer_null.net),
            "traced_digest": weights_digest(trainer.net),
            "final_loss": float(history.losses()[-1]),
            "val_acc": float(history.val_accuracies()[-1]),
            "test_acc": float(
                trainer.evaluate(tiny_dataset.x_test, tiny_dataset.y_test)
            ),
            "snapshot": trainer.obs.snapshot(),
        }
    return out


@pytest.fixture(scope="session")
def probed_runs(tiny_dataset):
    """Per-method results of traced runs with quality probes attached.

    Kept separate from ``traced_runs`` so the golden-trace counters stay
    probe-free; the ``probe.*`` counters and series live here.
    """
    out = {}
    for name in TRAINER_NAMES:
        trainer, history = run_trainer(
            name, tiny_dataset, InMemoryRecorder(), probe_every=3
        )
        out[name] = {
            "digest": weights_digest(trainer.net),
            "final_loss": float(history.losses()[-1]),
            "snapshot": trainer.obs.snapshot(),
        }
    return out


@pytest.fixture(scope="session")
def report_snapshot(probed_runs):
    """One merged snapshot of every probed training run, a short traced
    stream run and a traced top-k server with a tenant head cache — a
    snapshot that forms every derived ratio and every report section."""
    from repro.obs import merge_snapshots
    from repro.serve.server import InferenceServer, _fire, seeded_servable
    from repro.serve.tenants import TenantHeadCache
    from repro.stream import make_stream_trainer

    stream = InMemoryRecorder()
    make_stream_trainer(
        dim=12, n_classes=3, width=16, depth=2, batch_size=10,
        eval_every=5, seed=0, recorder=stream,
    ).run(10, resume=False)
    serve = InMemoryRecorder()
    with InferenceServer(
        seeded_servable(seed=0), mode="topk", k=5, recorder=serve
    ) as server:
        _fire(server, np.random.default_rng(0).normal(size=(40, 64)))
    tenants = TenantHeadCache(2, loader=str, recorder=serve)
    for tenant in "abacab":
        tenants.get(tenant)
    runs = [probed_runs[name]["snapshot"] for name in TRAINER_NAMES]
    return merge_snapshots(runs + [stream.snapshot(), serve.snapshot()])
