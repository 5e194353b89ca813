"""Tests for the empirical layerwise error measurement."""

from contextlib import nullcontext

import numpy as np
import pytest

from repro.core.alsh_approx import ALSHApproxTrainer
from repro.core.dropout import DropoutTrainer
from repro.core.topk_approx import TopKApproxTrainer
from repro.nn.network import MLP
from repro.obs import InMemoryRecorder
from repro.theory.analysis import layerwise_error


@pytest.fixture
def net():
    return MLP([16] + [32] * 4 + [3], seed=0)


def plain_topk_chain(net, x, frac):
    """§7's chain in plain NumPy, one sample at a time: keep the top-k
    columns by |⟨â, W·j⟩|, zero the rest, ReLU; the exact chain beside it."""
    hidden = net.layers[:-1]
    totals = np.zeros(len(hidden))
    for row in x:
        a, a_hat = row, row
        for k, layer in enumerate(hidden):
            a = np.maximum(a @ layer.W + layer.b, 0.0)
            keep = max(1, int(round(frac * layer.n_out)))
            cols = np.argsort(-np.abs(a_hat @ layer.W))[:keep]
            z = np.zeros(layer.n_out)
            z[cols] = a_hat @ layer.W[:, cols] + layer.b[cols]
            a_hat = np.maximum(z, 0.0)
            totals[k] += np.linalg.norm(a_hat - a) / np.linalg.norm(a)
    return totals / len(x)


class FixedForwards:
    """Stands in for a trainer whose two probe forwards are given."""

    def __init__(self, exact, approx):
        self.exact, self.approx = exact, approx

    def probe_scope(self):
        return nullcontext()

    def probe_exact_forward(self, x):
        return self.exact

    def probe_approx_forward(self, x, rng):
        return self.approx


class TestMeasurement:
    def test_matches_plain_numpy_chain(self, net, rng):
        x = rng.normal(size=(12, 16))
        for frac in (0.1, 0.4):
            got = layerwise_error(
                TopKApproxTrainer(net, active_frac=frac), x, rng
            )
            np.testing.assert_allclose(
                got, plain_topk_chain(net, x, frac), rtol=1e-12, atol=0
            )

    def test_full_budget_zero_error(self, net, rng):
        trainer = TopKApproxTrainer(net, active_frac=1.0)
        errors = layerwise_error(trainer, rng.normal(size=(5, 16)), rng)
        np.testing.assert_allclose(errors, 0.0, atol=1e-10)

    def test_errors_grow_with_depth(self, net, rng):
        """The §7 compounding shows up empirically even for the oracle
        selector on a ReLU network."""
        trainer = TopKApproxTrainer(net, active_frac=0.4)
        errors = layerwise_error(trainer, rng.normal(size=(20, 16)), rng)
        assert errors[-1] > errors[0]

    def test_topk_beats_random(self, net, rng):
        """MIPS-style selection is strictly better than dropout's blind
        sampling at the same budget."""
        x = rng.normal(size=(20, 16))
        topk = layerwise_error(TopKApproxTrainer(net, active_frac=0.3), x, rng)
        blind = layerwise_error(
            DropoutTrainer(net, keep_prob=0.3), x, np.random.default_rng(3),
            trials=4,
        )
        assert topk.mean() < blind.mean()

    def test_output_shape(self, net, rng):
        trainer = TopKApproxTrainer(net, active_frac=0.5)
        errors = layerwise_error(trainer, rng.normal(size=(3, 16)), rng, trials=2)
        assert errors.shape == (4,)

    def test_zero_norm_rows(self):
        """A row whose exact activation vanishes scores 0 when its estimate
        vanishes too and 1 otherwise, whatever the estimate's size."""
        exact = [np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]]), np.zeros((3, 5))]
        approx = [np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 1e-3]]), np.ones((3, 5))]
        errors = layerwise_error(
            FixedForwards(exact, approx), np.zeros((3, 2)), rng=None
        )
        np.testing.assert_allclose(errors, [(0.0 + 0.8 + 1.0) / 3])

    def test_measuring_leaves_alsh_trainer_untouched(self, net, rng):
        """Clamping draws from the caller's rng; the trainer's stream,
        active-set diagnostics and work counters stay as they were, also
        when measured with the trainer's instrumented backend active (as
        a callback inside ``fit`` would be)."""
        recorder = InMemoryRecorder()
        trainer = ALSHApproxTrainer(
            net, seed=2, min_active_frac=0.25, max_active_frac=0.25,
            recorder=recorder,
        )
        trainer.train_batch(rng.normal(size=(4, 16)), rng.integers(0, 3, 4))
        rng_state = trainer.rng.bit_generator.state
        active_sum = trainer._active_sum.copy()
        active_count = trainer._active_count
        counters = dict(recorder.counters)
        timings = {k: list(v) for k, v in recorder.timings.items()}
        with trainer._backend_scope():
            layerwise_error(
                trainer, rng.normal(size=(6, 16)), np.random.default_rng(9),
                trials=2,
            )
        assert trainer.rng.bit_generator.state == rng_state
        np.testing.assert_array_equal(trainer._active_sum, active_sum)
        assert trainer._active_count == active_count
        assert recorder.counters == counters
        assert recorder.timings == timings

    def test_no_hidden_layers_rejected(self, rng):
        shallow = TopKApproxTrainer(MLP([8, 3], seed=0), active_frac=0.5)
        with pytest.raises(ValueError, match="no hidden layers"):
            layerwise_error(shallow, rng.normal(size=(2, 8)), rng)
