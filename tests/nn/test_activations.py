"""Unit and property tests for repro.nn.activations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn.activations import LogSoftmax, ReLU, Sigmoid

ELEMENTWISE = [ReLU(), Sigmoid()]

finite_arrays = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 4), st.integers(1, 6)),
    elements=st.floats(-50, 50),
)


class TestForwardValues:
    def test_relu_clamps_negatives(self):
        z = np.array([[-2.0, -0.5, 0.0, 0.5, 2.0]])
        np.testing.assert_array_equal(
            ReLU().forward(z), [[0.0, 0.0, 0.0, 0.5, 2.0]]
        )

    def test_sigmoid_midpoint(self):
        assert Sigmoid().forward(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_extremes_are_stable(self):
        z = np.array([-1000.0, 1000.0])
        out = Sigmoid().forward(z)
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(20, 1000), (1, 1000), (20, 128)])
    def test_sigmoid_matches_the_masked_formula_byte_for_byte(self, shape):
        """Standout's keep probabilities: every byte, a NaN's sign bit
        included, is the masked two-halves formula's."""

        def masked(z):
            out = np.empty_like(z, dtype=float)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        z = np.random.default_rng(0).normal(scale=20.0, size=shape)
        special = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan]
        z.reshape(-1)[:len(special)] = special
        out = Sigmoid().forward(z)
        assert out.dtype == np.float64 and out.shape == z.shape
        assert out.tobytes() == masked(z).tobytes()

class TestDerivatives:
    @pytest.mark.parametrize("act", ELEMENTWISE, ids=lambda a: a.name)
    def test_derivative_matches_finite_difference(self, act):
        rng = np.random.default_rng(3)
        # Stay away from ReLU's kink for a clean numeric comparison.
        z = rng.uniform(0.2, 2.5, size=(4, 5)) * rng.choice([-1, 1], size=(4, 5))
        eps = 1e-6
        numeric = (act.forward(z + eps) - act.forward(z - eps)) / (2 * eps)
        np.testing.assert_allclose(act.derivative(z), numeric, atol=1e-5)

    def test_relu_derivative_at_zero_is_zero(self):
        assert ReLU().derivative(np.array([0.0]))[0] == 0.0

    def test_log_softmax_derivative_raises(self):
        with pytest.raises(NotImplementedError):
            LogSoftmax().derivative(np.zeros((1, 3)))


class TestLogSoftmax:
    def test_rows_are_log_distributions(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(5, 7))
        logp = LogSoftmax().forward(z)
        np.testing.assert_allclose(np.exp(logp).sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0]])
        shifted = z + 100.0
        np.testing.assert_allclose(
            LogSoftmax().forward(z), LogSoftmax().forward(shifted), atol=1e-9
        )

    def test_large_logits_stable(self):
        z = np.array([[1e4, 0.0, -1e4]])
        logp = LogSoftmax().forward(z)
        assert np.all(np.isfinite(logp))
        assert logp[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_softmax_helper_matches_exp_of_logsoftmax(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(3, 4))
        np.testing.assert_allclose(
            LogSoftmax.softmax(z), np.exp(LogSoftmax().forward(z)), atol=1e-12
        )


class TestProperties:
    @settings(max_examples=40)
    @given(finite_arrays)
    def test_relu_output_nonnegative(self, z):
        assert (ReLU().forward(z) >= 0).all()

    @settings(max_examples=40)
    @given(finite_arrays)
    def test_sigmoid_bounded(self, z):
        out = Sigmoid().forward(z)
        assert ((out >= 0) & (out <= 1)).all()

    @settings(max_examples=40)
    @given(finite_arrays)
    def test_log_softmax_nonpositive(self, z):
        assert (LogSoftmax().forward(z) <= 1e-12).all()

    @settings(max_examples=40)
    @given(finite_arrays)
    def test_shapes_preserved(self, z):
        for act in ELEMENTWISE:
            assert act.forward(z).shape == z.shape
            assert act.derivative(z).shape == z.shape
