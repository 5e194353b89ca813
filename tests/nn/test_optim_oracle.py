"""Column-major, in-place optimiser rules against the whole-array rules.

The oracle classes keep the textbook update bodies: every rule evaluated on
whole (column-sliced) arrays with fresh temporaries, on row-major state.
They share ``state_dict`` with the classes under test.  One seeded
sequence of interleaved dense and lazy updates drives both; after every
step the parameter and every ``state_dict`` array must be bitwise equal —
the in-place rules promise the same floating-point operations in the same
order, not merely close results.  A second sequence takes each step of the
rules under test in column blocks, as single-sample training does
(``Trainer._update_weights``), against the oracle's one whole-array step.
"""

import numpy as np
import pytest

from repro.core import make_trainer
from repro.nn.network import MLP
from repro.nn.optim import SGD, Adam
from repro.obs import InMemoryRecorder


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


class OracleSGD(SGD):
    def update(self, key, param, grad, index=None):
        step = self.lr * grad
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
    "sgd": (SGD, OracleSGD, 0.05),
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


def _plain(label):
    """Row id ending in ``-plain``: the bare rule, as the rows were named when
    the suite also ran each rule with weight decay and clipping."""
    return f"{label}-plain"


@pytest.mark.parametrize(
    "shape", SHAPES, ids=lambda s: _plain("x".join(map(str, s)))
)
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_matches_whole_array_rules_bitwise(name, shape):
    cls, oracle_cls, lr = PAIRS[name]
    opt, oracle = cls(lr), oracle_cls(lr)
    rng = np.random.default_rng(sum(shape))
    param = rng.normal(size=shape)
    oracle_param = param.copy()
    n_cols = shape[-1]
    for step, kind in enumerate(SEQUENCE):
        index = _index(kind, n_cols, rng)
        width = n_cols if index is None else index.size
        grad = _grad(shape[:-1] + (width,), rng, step)
        before = grad.copy()
        oracle.update("p", oracle_param, grad, index=index)
        opt.update("p", param, grad, index=index)
        assert np.array_equal(grad, before)
        _assert_same(opt, oracle, param, oracle_param)

    # Row-major slots (as the oracle and older checkpoints hold them) load
    # column-major, and the next update still matches.
    resumed = cls(lr)
    resumed.load_state_dict(*oracle.state_dict())
    _assert_same(resumed, oracle, param, oracle_param)
    index = _index("subset", n_cols, rng)
    grad = rng.normal(size=shape[:-1] + (index.size,))
    resumed.update("p", param, grad, index=index)
    oracle.update("p", oracle_param, grad, index=index)
    _assert_same(resumed, oracle, param, oracle_param)


#: Whole-array steps the blocked sequence takes, in order.
BLOCK_SEQUENCE = ["dense", "subset", "dense", "one", "all", "subset", "dense"]


def _blocks(width, n):
    """Consecutive slices of ``width`` covering ``range(n)``."""
    return [slice(start, start + width) for start in range(0, n, width)]


@pytest.mark.parametrize(
    "shape, width",
    [((300,), 64), ((5, 8), 3), ((1000, 40), 7), ((784, 1000), 32)],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else _plain(v),
)
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_column_blocks_match_whole_array_steps_bitwise(name, shape, width):
    """Dense steps by slices, lazy steps by consecutive pieces of the ids.

    Every width leaves a last block narrower than the rest.
    """
    cls, oracle_cls, lr = PAIRS[name]
    opt, oracle = cls(lr), oracle_cls(lr)
    rng = np.random.default_rng(sum(shape) + width)
    param = rng.normal(size=shape)
    oracle_param = param.copy()
    n_cols = shape[-1]
    for step, kind in enumerate(BLOCK_SEQUENCE):
        index = _index(kind, n_cols, rng)
        size = n_cols if index is None else index.size
        grad = _grad(shape[:-1] + (size,), rng, step)
        before = grad.copy()
        oracle.update("p", oracle_param, grad, index=index)
        for block in _blocks(width, size):
            cols = block if index is None else index[block]
            opt.update("p", param, grad[..., block], index=cols)
        assert np.array_equal(grad, before)
        _assert_same(opt, oracle, param, oracle_param)
    assert n_cols % width and n_cols > width


def test_update_counts_a_slice_by_its_columns():
    trainer = make_trainer(
        "standard", MLP([4, 6, 3], seed=0), recorder=InMemoryRecorder()
    )
    layer = trainer.net.layers[0]
    trainer._update(("W", 0), layer.W, np.zeros((4, 4)), index=slice(1, 5))
    trainer._update(("W", 0), layer.W, np.zeros((4, 2)), index=np.array([0, 5]))
    counters = trainer.obs.snapshot()["counters"]
    assert counters["optim.lazy_update_hits"] == 2
    assert counters["optim.lazy_update_cols"] == 6
