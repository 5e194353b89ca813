"""Unit tests for repro.nn.optim — dense and sparse-column updates."""

import numpy as np
import pytest

from repro.nn.optim import SGD, Adam, get_optimizer


@pytest.fixture
def param():
    return np.ones((4, 6))


@pytest.fixture
def grad():
    rng = np.random.default_rng(0)
    return rng.normal(size=(4, 6))


class TestSGD:
    def test_dense_step(self, param, grad):
        opt = SGD(lr=0.1)
        expected = param - 0.1 * grad
        opt.update("w", param, grad)
        np.testing.assert_allclose(param, expected)

    def test_column_step_touches_only_selected(self, param, grad):
        opt = SGD(lr=0.1)
        cols = np.array([1, 4])
        before = param.copy()
        opt.update("w", param, grad[:, cols], index=cols)
        untouched = np.setdiff1d(np.arange(6), cols)
        np.testing.assert_array_equal(param[:, untouched], before[:, untouched])
        np.testing.assert_allclose(
            param[:, cols], before[:, cols] - 0.1 * grad[:, cols]
        )

    def test_bias_column_step(self):
        opt = SGD(lr=1.0)
        b = np.zeros(5)
        opt.update("b", b, np.array([2.0, 3.0]), index=np.array([0, 4]))
        np.testing.assert_allclose(b, [-2.0, 0.0, 0.0, 0.0, -3.0])

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            SGD(lr=0.0)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        """Bias correction makes the first Adam step ≈ lr in magnitude."""
        opt = Adam(lr=0.01)
        p = np.zeros(3)
        opt.update("p", p, np.array([10.0, -3.0, 0.5]))
        np.testing.assert_allclose(np.abs(p), 0.01, rtol=1e-4)

    def test_lazy_column_step_counts(self):
        """Column step counters advance independently (lazy Adam)."""
        opt = Adam(lr=0.1)
        p = np.zeros((2, 3))
        g = np.ones((2, 1))
        opt.update("w", p, g, index=np.array([0]))
        opt.update("w", p, g, index=np.array([0]))
        opt.update("w", p, np.ones((2, 1)), index=np.array([2]))
        state = opt._state["w"]
        assert state["t"][0] == 2
        assert state["t"][1] == 0
        assert state["t"][2] == 1
        # Column 2's single update should look like a fresh first step.
        assert abs(p[0, 2]) == pytest.approx(0.1, rel=1e-4)

    def test_dense_and_sparse_interleave(self):
        opt = Adam(lr=0.1)
        p = np.zeros((2, 2))
        opt.update("w", p, np.ones((2, 2)))
        opt.update("w", p, np.ones((2, 1)), index=np.array([1]))
        state = opt._state["w"]
        np.testing.assert_array_equal(state["t"], [1, 2])

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam(lr=0.1, beta1=1.0)

    def test_refused_state_leaves_the_slots_as_they_were(self):
        opt = Adam(lr=0.1)
        opt.update("w", np.zeros((2, 2)), np.ones((2, 2)))
        meta, arrays = opt.state_dict()
        before = {name: arr.copy() for name, arr in arrays.items()}
        partial = {name: arr for name, arr in arrays.items() if name != "opt.0.v"}
        with pytest.raises(ValueError, match="lacks optimiser slot 'v'"):
            opt.load_state_dict(dict(meta, lr=0.5), partial)
        meta_after, after = opt.state_dict()
        assert meta_after == meta
        assert sorted(after) == sorted(before)
        for name, arr in before.items():
            np.testing.assert_array_equal(after[name], arr)


class TestConvergence:
    @pytest.mark.parametrize("name", ["sgd", "adam"])
    def test_minimises_quadratic(self, name):
        """Every optimiser should make progress on f(p) = ||p - t||^2."""
        target = np.array([1.0, -2.0, 3.0])
        p = np.zeros(3)
        opt = get_optimizer(name, lr=0.1)
        for _ in range(300):
            grad = 2.0 * (p - target)
            opt.update("p", p, grad)
        np.testing.assert_allclose(p, target, atol=0.1)


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_optimizer("adam", 0.1), Adam)

    def test_instance_passthrough(self):
        opt = SGD(0.1)
        assert get_optimizer(opt, 0.5) is opt

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            get_optimizer("lion", 0.1)

