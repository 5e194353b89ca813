"""Column-major, in-place optimiser rules against the whole-array rules.

The oracle classes keep the textbook update bodies: every rule evaluated on
whole (column-sliced) arrays with fresh temporaries, on row-major state.
They share weight decay, clipping and ``state_dict`` with the classes under
test.  One seeded sequence of interleaved dense and lazy updates drives
both; after every step the parameter and every ``state_dict`` array must be
bitwise equal — the in-place rules promise the same floating-point
operations in the same order, not merely close results.
"""

import numpy as np
import pytest

from repro.nn.optim import Adagrad, Adam, Momentum


def _slice(arr, index):
    if index is None:
        return arr
    if arr.ndim == 2:
        return arr[:, index]
    return arr[index]


def _assign(arr, index, value):
    if index is None:
        arr[...] = value
    elif arr.ndim == 2:
        arr[:, index] = value
    else:
        arr[index] = value


class OracleMomentum(Momentum):
    def _init_state(self, param):
        return {"v": np.zeros_like(param, dtype=float)}

    def update(self, key, param, grad, index=None):
        self._apply_weight_decay(param, index)
        grad = self._clip(grad)
        state = self._get_state(key, param)
        v = _slice(state["v"], index)
        v_new = self.beta * v + grad
        _assign(state["v"], index, v_new)
        if index is None:
            param -= self.lr * v_new
        elif param.ndim == 2:
            param[:, index] -= self.lr * v_new
        else:
            param[index] -= self.lr * v_new


class OracleAdagrad(Adagrad):
    def _init_state(self, param):
        return {"g2": np.zeros_like(param, dtype=float)}

    def update(self, key, param, grad, index=None):
        self._apply_weight_decay(param, index)
        grad = self._clip(grad)
        state = self._get_state(key, param)
        g2 = _slice(state["g2"], index) + grad * grad
        _assign(state["g2"], index, g2)
        step = self.lr * grad / (np.sqrt(g2) + self.eps)
        if index is None:
            param -= step
        elif param.ndim == 2:
            param[:, index] -= step
        else:
            param[index] -= step


class OracleAdam(Adam):
    def _init_state(self, param):
        n_cols = param.shape[-1] if param.ndim == 2 else param.shape[0]
        return {
            "m": np.zeros_like(param, dtype=float),
            "v": np.zeros_like(param, dtype=float),
            "t": np.zeros(n_cols, dtype=np.int64),
        }

    def update(self, key, param, grad, index=None):
        self._apply_weight_decay(param, index)
        grad = self._clip(grad)
        state = self._get_state(key, param)
        col_idx = slice(None) if index is None else index
        state["t"][col_idx] += 1
        t = state["t"][col_idx]

        m = self.beta1 * _slice(state["m"], index) + (1 - self.beta1) * grad
        v = self.beta2 * _slice(state["v"], index) + (1 - self.beta2) * grad * grad
        _assign(state["m"], index, m)
        _assign(state["v"], index, v)

        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t
        m_hat = m / bc1
        v_hat = v / bc2
        step = self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
        if index is None:
            param -= step
        elif param.ndim == 2:
            param[:, index] -= step
        else:
            param[index] -= step


PAIRS = {
    "momentum": (Momentum, OracleMomentum, 0.05),
    "adagrad": (Adagrad, OracleAdagrad, 0.05),
    "adam": (Adam, OracleAdam, 0.01),
}

SHAPES = [(7,), (300,), (5, 8), (7, 1), (1000, 40), (784, 1000)]

#: Update kinds in order: dense, one column, a random sorted unique subset
#: (229 of 1000, scaled to the parameter's width), every column as an index.
SEQUENCE = ["dense", "one", "subset", "all", "subset", "dense", "one",
            "subset", "all", "dense"]


def _index(kind, n_cols, rng):
    if kind == "dense":
        return None
    if kind == "one":
        return rng.integers(n_cols, size=1)
    if kind == "all":
        return np.arange(n_cols)
    size = max(1, round(n_cols * 229 / 1000))
    return np.sort(rng.choice(n_cols, size=size, replace=False))


def _grad(shape, rng, step):
    """Gradient of ``shape`` at scale 0.1 or 1, row-major, column-major or strided."""
    g = rng.normal(scale=rng.choice([0.1, 1.0]), size=shape)
    layout = step % 3
    if layout == 1:
        return np.asfortranarray(g)
    if layout == 2:
        wide = np.zeros(shape[:-1] + (2 * shape[-1],))
        wide[..., ::2] = g
        return wide[..., ::2]
    return g


def _assert_same(opt, oracle, param, oracle_param):
    assert np.array_equal(param, oracle_param)
    meta, arrays = opt.state_dict()
    oracle_meta, oracle_arrays = oracle.state_dict()
    assert meta == oracle_meta
    assert sorted(arrays) == sorted(oracle_arrays)
    for name, arr in arrays.items():
        assert arr.dtype == oracle_arrays[name].dtype, name
        assert np.array_equal(arr, oracle_arrays[name]), name
        if arr.ndim == 2:
            assert arr.flags.f_contiguous, name


@pytest.mark.parametrize("regularised", [False, True], ids=["plain", "wd-clip"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_matches_whole_array_rules_bitwise(name, shape, regularised):
    cls, oracle_cls, lr = PAIRS[name]
    kw = {}
    if regularised:
        kw = {"weight_decay": 0.1, "max_grad_norm": 0.3 * np.sqrt(np.prod(shape))}
    opt, oracle = cls(lr, **kw), oracle_cls(lr, **kw)
    rng = np.random.default_rng(sum(shape) + 7 * regularised)
    param = rng.normal(size=shape)
    oracle_param = param.copy()
    n_cols = shape[-1]
    clipped = []
    for step, kind in enumerate(SEQUENCE):
        index = _index(kind, n_cols, rng)
        width = n_cols if index is None else index.size
        grad = _grad(shape[:-1] + (width,), rng, step)
        # The same array goes to both: a clipping norm sums in memory order.
        before = grad.copy()
        clipped.append(np.linalg.norm(grad) > kw.get("max_grad_norm", np.inf))
        oracle.update("p", oracle_param, grad, index=index)
        opt.update("p", param, grad, index=index)
        assert np.array_equal(grad, before)
        _assert_same(opt, oracle, param, oracle_param)
    if regularised:
        assert 0 < sum(clipped) < len(SEQUENCE)

    # Row-major slots (as the oracle and older checkpoints hold them) load
    # column-major, and the next update still matches.
    resumed = cls(lr, **kw)
    resumed.load_state_dict(*oracle.state_dict())
    _assert_same(resumed, oracle, param, oracle_param)
    index = _index("subset", n_cols, rng)
    grad = rng.normal(size=shape[:-1] + (index.size,))
    resumed.update("p", param, grad, index=index)
    oracle.update("p", oracle_param, grad, index=index)
    _assert_same(resumed, oracle, param, oracle_param)
