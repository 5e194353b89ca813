"""A traced trainer's kernels run on its own backend, inside ``fit`` or not.

Every kernel call finds its backend through ``active_backend()``, which
sees the trainer's ``compute_backend`` only inside the trainer's backend
scope.  So a step, a prediction, an ALSH table refresh or a stream run
called directly must record the same counters as the same call made
while the caller holds that scope.
"""

import numpy as np
import pytest

from repro.backend import use_backend
from repro.core.registry import make_trainer, trainer_names
from repro.nn.network import MLP
from repro.obs import InMemoryRecorder
from repro.obs.counters import gemm_flops
from repro.stream.trainer import make_stream_trainer


def counters(recorder):
    return recorder.snapshot()["counters"]


#: Every method with its default step, plus ALSH's union step.
METHODS = [pytest.param(name, {}, id=name) for name in trainer_names()] + [
    pytest.param("alsh", {"batch_mode": "union"}, id="alsh-union")
]


@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("method, kwargs", METHODS)
def test_direct_calls_record_what_scoped_calls_do(method, kwargs, rows):
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(rows, 8)), rng.integers(0, 3, size=rows)
    bare, scoped = (
        make_trainer(
            method, MLP([8, 6, 6, 3], seed=0), seed=1, recorder=InMemoryRecorder(),
            **kwargs,
        )
        for _ in range(2)
    )
    bare.train_batch(x, y)
    bare.predict(x)
    with use_backend(scoped.compute_backend):
        scoped.train_batch(x, y)
        scoped.predict(x)
    assert counters(bare.obs) == counters(scoped.obs)
    assert counters(bare.obs)["kernel.flops.matmul_add_bias"] > 0


def test_alsh_refresh_records_what_a_scoped_refresh_does():
    """A refresh re-hashes the touched columns in one GEMM per layer."""
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(4, 8)), rng.integers(0, 3, size=4)
    bare, scoped = (
        make_trainer(
            "alsh", MLP([8, 6, 6, 3], seed=0), seed=1, recorder=InMemoryRecorder()
        )
        for _ in range(2)
    )
    for trainer in (bare, scoped):
        trainer.train_batch(x, y)
    flops = counters(bare.obs)["kernel.flops.matmul"]
    assert bare.refresh_tables() > 0
    with use_backend(scoped.compute_backend):
        scoped.refresh_tables()
    assert counters(bare.obs) == counters(scoped.obs)
    assert counters(bare.obs)["kernel.flops.matmul"] > flops


def test_stream_run_records_what_a_scoped_run_does():
    bare, scoped = (
        make_stream_trainer(recorder=InMemoryRecorder(), drift_threshold=0.001)
        for _ in range(2)
    )
    bare.run(60)
    with use_backend(scoped.trainer.compute_backend):
        scoped.run(60)
    assert counters(bare.obs) == counters(scoped.obs)
    assert counters(bare.obs)["stream.rebuilds"] > 0


def test_alsh_table_build_records_its_hashing():
    """Building the tables hashes each hidden layer's columns, ALSH-extended
    by ``m``, against every table's hyperplanes in one GEMM on the
    trainer's backend."""
    net = MLP([8, 6, 6, 3], seed=0)
    trainer = make_trainer("alsh", net, seed=1, recorder=InMemoryRecorder())
    expected = sum(
        gemm_flops(layer.n_out, ix.index.dim, ix.index.n_bits * ix.index.n_tables)
        for layer, ix in zip(net.layers, trainer.indexes)
    )
    assert counters(trainer.obs) == {
        "lsh.builds": 2,
        "kernel.flops.matmul": expected,
    }
