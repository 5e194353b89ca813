"""Column-block weight steps against whole-array references.

A one-sample step's weight gradient is the outer product ``a ⊗ δ``.
``Trainer._update_weights`` never builds it: it hands the optimiser one
column block at a time.  A batch's gradient is one GEMM, built whole, and
``Trainer._update`` hands it to the optimiser in the same column blocks.
The reference here builds ``grad_cols(a, δ)`` whole and calls
``optimizer.update`` once per parameter, as training did before either.
Weights, losses and work counters must agree bit for bit after every
step.  The hidden layers of 784→300→300→10 span several blocks (a block
holds ``BLOCK_BYTES // (8 n_in)`` float64 columns), so each step crosses
block boundaries, dense and lazy.

The last tests pin paper-width (784→1000³→10) weights after ten steps:
of all six methods at batch 1, at digests written before the fused step
existed, and of the four train-minibatch methods at batch 20, at digests
written before batch steps were applied in blocks.  The batch-1 rows
must also come out under a caller's ufunc buffer far below and far
above the size trainers pin.
"""

import hashlib
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.backend import active_backend
from repro.core import make_trainer
from repro.nn.network import MLP
from repro.nn.optim import BLOCK_BYTES
from repro.obs import InMemoryRecorder

LAYER_SIZES = [784, 300, 300, 10]
STEPS = 6

#: method -> kwargs; the samplers keep enough columns for several blocks.
METHODS = {
    "standard": {},
    "dropout": {"keep_prob": 0.75},
    "adaptive_dropout": {},
    "mc": {},
    "alsh": {"min_active_frac": 0.5, "max_active_frac": 1.0},
    "topk": {"active_frac": 0.75},
}

#: The methods that take one step per batch of rows: their batch steps
#: build each weight gradient whole (ALSH and top-k step per sample at
#: any batch size).
BATCH_METHODS = ("standard", "dropout", "adaptive_dropout", "mc")

#: case id -> (method, batch size).
CASES = {
    **{f"{method}-batch1": (method, 1) for method in METHODS},
    "alsh-batch4": ("alsh", 4),
    "topk-batch4": ("topk", 4),
    **{f"{method}-batch20": (method, 20) for method in BATCH_METHODS},
}


def _materialised(self, key, param, a_prev, delta, index=None):
    """The whole gradient, one ``optimizer.update`` per parameter."""
    self._update(key, param, active_backend().grad_cols(a_prev, delta), index)


def _whole(self, key, param, grad, index=None):
    """One ``optimizer.update`` of the whole gradient, counted as one."""
    self._count_update(param, index)
    self.optimizer.update(key, param, grad, index=index)


def _pair(method, optimizer):
    trainers = []
    for _ in range(2):
        trainers.append(make_trainer(
            method, MLP(LAYER_SIZES, seed=0), lr=0.01, optimizer=optimizer,
            seed=1, recorder=InMemoryRecorder(), **METHODS[method],
        ))
    fused, reference = trainers
    reference._update_weights = types.MethodType(_materialised, reference)
    reference._update = types.MethodType(_whole, reference)
    return fused, reference


def _assert_same(fused, reference):
    for layer, ref in zip(fused.net.layers, reference.net.layers):
        assert np.array_equal(layer.W, ref.W)
        assert np.array_equal(layer.b, ref.b)


def test_hidden_layers_span_several_blocks():
    for n_in, n_out in zip(LAYER_SIZES[:2], LAYER_SIZES[1:3]):
        assert n_out > 2 * (BLOCK_BYTES // (8 * n_in))


@pytest.mark.parametrize("method", sorted(METHODS))
def test_single_sample_steps_never_build_the_gradient(method):
    trainer = make_trainer(
        method, MLP(LAYER_SIZES, seed=0), lr=0.01, seed=1, **METHODS[method]
    )
    blocks = []
    update = trainer.optimizer.update

    def spy(key, param, grad, index=None):
        if key[0] == "W":
            blocks.append((param.shape[0], grad.shape[-1]))
        update(key, param, grad, index=index)

    trainer.optimizer.update = spy
    rng = np.random.default_rng(2)
    trainer.train_batch(rng.random((1, LAYER_SIZES[0])), np.array([3]))
    assert len(blocks) > len(LAYER_SIZES)
    assert all(cols <= BLOCK_BYTES // (8 * n_in) for n_in, cols in blocks)


@pytest.mark.parametrize("method", BATCH_METHODS)
def test_batch_steps_apply_the_gradient_in_blocks(method):
    trainer = make_trainer(
        method, MLP(LAYER_SIZES, seed=0), lr=0.01, seed=1, **METHODS[method]
    )
    blocks = []
    update = trainer.optimizer.update

    def spy(key, param, grad, index=None):
        if key[0] == "W":
            blocks.append((key[1], param.shape[0], grad.shape[-1]))
            if key[1] == 2:  # 300×10: the gradient fits one block
                assert grad.shape == param.shape and index is None
        update(key, param, grad, index=index)

    trainer.optimizer.update = spy
    rng = np.random.default_rng(2)
    trainer.train_batch(
        rng.random((20, LAYER_SIZES[0])),
        rng.integers(0, LAYER_SIZES[-1], size=20),
    )
    assert len(blocks) > len(LAYER_SIZES)
    assert {layer for layer, _, _ in blocks} == {0, 1, 2}
    assert all(cols <= BLOCK_BYTES // (8 * n_in) for _, n_in, cols in blocks)


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_a_batch_step_of_a_paper_width_layer_stays_below_one_mib(optimizer):
    """A 1000×1000 layer's step allocates blocks, never a W-sized array."""
    trainer = make_trainer(
        "standard", MLP([1000, 1000, 10], seed=0), optimizer=optimizer, seed=1
    )
    layer = trainer.net.layers[0]
    rng = np.random.default_rng(2)
    grad = active_backend().grad_cols(
        rng.normal(size=(20, 1000)), rng.normal(size=(20, 1000))
    )
    trainer._update(("W", 0), layer.W, grad)  # allocates Adam's slots
    tracemalloc.start()
    try:
        trainer._update(("W", 0), layer.W, grad)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_fused_step_matches_materialised_gradient(case, optimizer):
    method, batch = CASES[case]
    fused, reference = _pair(method, optimizer)
    rng = np.random.default_rng(2)
    x = rng.random((STEPS * batch, LAYER_SIZES[0]))
    y = rng.integers(0, LAYER_SIZES[-1], size=STEPS * batch)
    for i in range(0, len(y), batch):
        loss = fused.train_batch(x[i:i + batch], y[i:i + batch])
        assert loss == reference.train_batch(x[i:i + batch], y[i:i + batch])
        _assert_same(fused, reference)
    assert (
        fused.obs.snapshot()["counters"] == reference.obs.snapshot()["counters"]
    )


#: sha256 of every W and b after ten steps at 784→1000³→10, by
#: ``_paper_width_digest(case)`` on the settings in ``PAPER_SETTINGS``.
#: The batch-1 rows were written before single-sample steps were fused;
#: the batch-20 rows by the same recipe before batch steps were applied
#: in column blocks, with one BLAS thread (``_single_threaded_digest``),
#: on OpenBLAS 0.3.31's Haswell kernels.
PAPER_WIDTH_DIGESTS = {
    "standard": (
        "bfa1458e041a2084a95564f454ee91a327b0251b58a49d687acf27a72200fa3f"
    ),
    "dropout": (
        "982eff3c7b8ea7f6fab682cfa50bd71e32eccb0e7d506ebe0fc81d63118f5c35"
    ),
    "adaptive_dropout": (
        "0cbb33fb48e7acf6cf45e92911153c65076c28a49027c2d37776fe8b592695ab"
    ),
    "mc": (
        "0b015f967217a74a207796e0ce7d084982ecf335296e29807d32414a841880a2"
    ),
    "alsh": (
        "e7799353efc78270b6c04fa6075de2c478c6f2891c4f35debf0aff18f22b76bc"
    ),
    "topk": (
        "24f219aa2dcfa0d7b31fec5ef4cfbf821c2bb84350114145984cbf098d6d9f18"
    ),
    "standard-batch20": (
        "d6047eea7a1c16b6600c4f87b26474f02feef6f1773550e6b0c02769ae582bd1"
    ),
    "dropout-batch20": (
        "dbe1250e7b3924b65ceb14909039f69b92e13169d671b1d6a4f7cd148ddbb846"
    ),
    "adaptive_dropout-batch20": (
        "7a185572bdd162dce79fd52f51762b7b1229d20aa4737ca5369a24b858bf53ee"
    ),
    "mc-batch20": (
        "7c41ded28309095216874fb0be0c94b540cc9f5f5d0d2f854fb7fb812441b408"
    ),
}

#: case -> (method, batch, lr, kwargs): the paper's batch-1 settings
#: (§8.4), and at batch 20 the train-minibatch settings of
#: ``benchmarks/conftest.py``'s PAPER_SETTINGS (standard^M, dropout^S,
#: adaptive_dropout^S, mc^M).
PAPER_SETTINGS = {
    "standard": ("standard", 1, 1e-3, {}),
    "dropout": ("dropout", 1, 1e-2, {"keep_prob": 0.05}),
    "adaptive_dropout": (
        "adaptive_dropout", 1, 1e-2, {"target_keep": 0.05, "alpha": 2.0}
    ),
    "mc": ("mc", 1, 1e-4, {"k": 10}),
    "alsh": ("alsh", 1, 1e-3, {"optimizer": "adam"}),
    "topk": ("topk", 1, 1e-3, {"optimizer": "adam"}),
    "standard-batch20": ("standard", 20, 1e-2, {}),
    "dropout-batch20": ("dropout", 20, 1e-2, {"keep_prob": 0.05}),
    "adaptive_dropout-batch20": (
        "adaptive_dropout", 20, 1e-2, {"target_keep": 0.05, "alpha": 2.0}
    ),
    "mc-batch20": ("mc", 20, 1e-2, {"k": 10}),
}


def _paper_width_digest(case):
    method, batch, lr, kwargs = PAPER_SETTINGS[case]
    net = MLP([784, 1000, 1000, 1000, 10], seed=3)
    trainer = make_trainer(method, net, lr=lr, seed=4, **kwargs)
    rng = np.random.default_rng(5)
    x = rng.random((10 * batch, 784))
    y = rng.integers(0, 10, size=10 * batch)
    for i in range(0, len(y), batch):
        trainer.train_batch(x[i:i + batch], y[i:i + batch])
    digest = hashlib.sha256()
    for layer in net.layers:
        digest.update(np.ascontiguousarray(layer.W).tobytes())
        digest.update(np.ascontiguousarray(layer.b).tobytes())
    return digest.hexdigest()


def _single_threaded_digest(case):
    """``_paper_width_digest(case)`` in a child process on one BLAS thread.

    OpenBLAS splits a batch's paper-width GEMMs across its threads, and
    the split moves their last bits; a one-row step's products come out
    the same on any thread count.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ),
    )
    code = (
        "import runpy, sys; "
        "print(runpy.run_path(sys.argv[1])['_paper_width_digest'](sys.argv[2]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, __file__, case],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, f"digest child process failed:\n{done.stderr}"
    return done.stdout.strip()


@pytest.mark.parametrize("case", sorted(PAPER_WIDTH_DIGESTS))
def test_paper_width_weights_are_pinned(case):
    if PAPER_SETTINGS[case][1] == 1:
        assert _paper_width_digest(case) == PAPER_WIDTH_DIGESTS[case]
        return
    assert _single_threaded_digest(case) == PAPER_WIDTH_DIGESTS[case], (
        f"{case} was pinned on OpenBLAS 0.3.31's Haswell kernels; another "
        "BLAS build or CPU kernel may round the batch GEMMs differently"
    )


@pytest.mark.parametrize("preset", [16, 65536])
@pytest.mark.parametrize(
    "case", sorted(c for c in PAPER_WIDTH_DIGESTS if PAPER_SETTINGS[c][1] == 1)
)
def test_paper_width_weights_ignore_the_callers_ufunc_buffer(case, preset):
    """Trainers pin NumPy's ufunc buffer, so whatever size the caller
    set, the batch-1 rows come out as written."""
    old = np.setbufsize(preset)
    try:
        assert _paper_width_digest(case) == PAPER_WIDTH_DIGESTS[case]
        assert np.getbufsize() == preset
    finally:
        np.setbufsize(old)
