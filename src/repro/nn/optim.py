"""First-order optimisers with dense *and* sparse-column updates.

ALSH-approx (§5.2) only back-propagates through the active nodes of each
layer, so its weight-gradient updates touch a small subset of the columns of
``W``.  To keep that sparsity profitable, every optimiser here supports an
``index`` argument that restricts the update — including its internal state
(moments, step counts) — to the selected columns.  ``index``
is either an array of sorted, unique column ids (the samplers pass such
sets) or a contiguous column slice ``slice(start, stop)``, whose slots and
parameter columns the rules update in place as views.  A slice step is the
whole-array step of its columns: the trainers apply a single sample's
outer-product gradient in column slices of at most :data:`BLOCK_BYTES`
and never build it whole (:meth:`~repro.core.base.Trainer._update_weights`).

Adam's per-element slots ``m`` and ``v`` of a 2-D parameter are
column-major in the parameter's logical ``(n_in, n_out)`` shape, so a lazy
update copies whole contiguous columns of state.  The rules run in place
on that layout (a lazy update writes its column blocks back, then reuses
them as scratch) in the textbook operation order, so results are bitwise
those of the whole-array rules (``tests/nn/test_optim_oracle.py``) and
checkpointed slots keep their names, shapes and values.

The paper uses SGD for most methods and Adam for ALSH-approx (§8.4, noting
the reference implementation works better with Adam than with the original
ALSH paper's rule); those two rules are provided, each at a fixed learning
rate.
"""

from __future__ import annotations

from typing import Dict, Type, Union

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam", "OPTIMIZERS", "get_optimizer"]

#: Bytes of gradient a single-sample weight step builds at a time: the
#: column block the trainers hand to :meth:`Optimizer.update` (32 columns
#: of a 1000-row ``W``).  Chosen by untraced end-to-end throughput at
#: 784→1000³→10, batch 1; larger blocks leave cache, smaller ones add
#: per-call overhead.
BLOCK_BYTES = 256 * 1024


def _slot(param: np.ndarray) -> np.ndarray:
    """A zeroed per-element state slot: float64, column-major, ``param``'s shape."""
    return np.zeros(param.shape, order="F")


#: A column selection: None (every column), sorted unique ids or a slice.
Index = Union[np.ndarray, slice, None]


def _slice(arr: np.ndarray, index: Index) -> np.ndarray:
    """The part of a slot an update works on: ``arr`` itself when dense.

    With an index, the selected output-node columns (2-D weight matrices,
    ``n_in × n_out``) or entries (1-D biases): a view for a slice, a copy
    for an id array; the copy of a column-major slot is column-major too.
    """
    if index is None:
        return arr
    if arr.ndim == 2:
        return arr[:, index]
    return arr[index]


def _copies(index: Index) -> bool:
    """True when :func:`_slice` copies: the update writes the copy back,
    then may reuse it as scratch."""
    return index is not None and not isinstance(index, slice)


def _assign(arr: np.ndarray, index: np.ndarray, value: np.ndarray) -> None:
    """Write a lazily updated block back into the columns of ``arr``."""
    if arr.ndim == 2:
        arr[:, index] = value
    else:
        arr[index] = value


def _subtract(param: np.ndarray, index: Index, step) -> None:
    """``param -= step``, restricted to the ``index`` columns or entries."""
    if index is None:
        param -= step
    elif param.ndim == 2:
        param[:, index] -= step
    else:
        param[index] -= step


class Optimizer:
    """Base class holding per-parameter state keyed by caller-chosen ids.

    Parameters are updated in place.  ``key`` must be stable across steps
    (e.g. ``("W", layer_idx)``); state arrays are allocated lazily at full
    parameter size so sparse and dense updates can interleave freely.
    """

    def __init__(self, lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        self._state: Dict[object, Dict[str, np.ndarray]] = {}

    def _get_state(self, key, param: np.ndarray) -> Dict[str, np.ndarray]:
        state = self._state.get(key)
        if state is None:
            state = self._init_state(param)
            self._state[key] = state
        return state

    def _init_state(self, param: np.ndarray) -> Dict[str, np.ndarray]:
        return {}

    def update(
        self,
        key,
        param: np.ndarray,
        grad: np.ndarray,
        index: Index = None,
    ) -> None:
        """Apply one optimisation step in place.

        ``grad`` must already be restricted to the ``index`` columns when an
        index is given (that is exactly what the sparse trainers produce).
        ``index`` is an array of sorted, unique column ids or a contiguous
        column slice; either way the step equals the whole-array step of
        those columns, bit for bit.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self):
        """Complete optimiser state as ``(meta, arrays)``.

        ``meta`` is JSON-safe (optimiser name, learning rate, slot layout)
        and ``arrays`` maps flat names to the slot arrays, ready for an
        ``.npz`` checkpoint.  Parameter keys must be strings or flat tuples
        of JSON scalars (the trainers use ``("W", i)`` / ``("b", i)``).
        """
        meta = {
            "name": getattr(self, "name", type(self).__name__.lower()),
            "lr": self.lr,
            "keys": [],
        }
        arrays = {}
        for j, (key, state) in enumerate(self._state.items()):
            meta["keys"].append(
                {
                    "key": list(key) if isinstance(key, tuple) else key,
                    "tuple": isinstance(key, tuple),
                    "slots": sorted(state),
                }
            )
            for slot in state:
                arrays[f"opt.{j}.{slot}"] = state[slot]
        return meta, arrays

    def load_state_dict(self, meta, arrays) -> None:
        """Restore state captured by :meth:`state_dict` (exact copy).

        Slots come back column-major whatever layout the archive stored.
        The rule's name and every slot are checked, and the new state is
        built, before the old state is replaced: a refused checkpoint
        leaves the optimiser as it was.
        """
        name = getattr(self, "name", type(self).__name__.lower())
        if meta.get("name") != name:
            raise ValueError(
                f"checkpoint holds {meta.get('name')!r} optimiser state, "
                f"this trainer uses {name!r}"
            )
        loaded = {}
        for j, entry in enumerate(meta["keys"]):
            key = tuple(entry["key"]) if entry["tuple"] else entry["key"]
            state = {}
            for slot in entry["slots"]:
                name = f"opt.{j}.{slot}"
                if name not in arrays:
                    raise ValueError(
                        f"checkpoint lacks optimiser slot {slot!r} of "
                        f"parameter {key!r} (array {name!r})"
                    )
                state[slot] = np.array(arrays[name], order="F")
            loaded[key] = state
        self.lr = float(meta["lr"])
        self._state = loaded


class SGD(Optimizer):
    """Plain stochastic gradient descent: ``p ← p − lr · g``."""

    name = "sgd"

    def update(self, key, param, grad, index=None):
        _subtract(param, index, self.lr * grad)


class Adam(Optimizer):
    """Adam — used for ALSH-approx in the paper's experiments (§8.4).

    For sparse-column updates the bias-correction step count is tracked per
    column, following the "lazy Adam" convention: a column's moments only
    advance when it receives a gradient.
    """

    name = "adam"

    def __init__(
        self,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        super().__init__(lr)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1): {beta1}, {beta2}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)

    def _init_state(self, param):
        n_cols = param.shape[-1] if param.ndim == 2 else param.shape[0]
        return {
            "m": _slot(param),
            "v": _slot(param),
            "t": np.zeros(n_cols, dtype=np.int64),
        }

    def update(self, key, param, grad, index=None):
        grad = np.asfortranarray(grad, dtype=float)
        state = self._get_state(key, param)
        col_idx = slice(None) if index is None else index
        state["t"][col_idx] += 1
        t = state["t"][col_idx]
        bc1 = 1.0 - self.beta1**t
        bc2 = 1.0 - self.beta2**t

        # m ← β1·m + (1−β1)·g;  v ← β2·v + ((1−β2)·g)·g
        m = _slice(state["m"], index)
        v = _slice(state["v"], index)
        step = np.multiply(grad, 1 - self.beta1)
        m *= self.beta1
        m += step
        np.multiply(grad, 1 - self.beta2, out=step)
        step *= grad
        v *= self.beta2
        v += step
        # p ← p − (lr·(m/bc1)) / (√(v/bc2) + ε)
        if _copies(index):
            _assign(state["m"], index, m)
            _assign(state["v"], index, v)
            den = np.divide(v, bc2, out=v)
        else:
            den = v / bc2
        np.divide(m, bc1, out=step)
        step *= self.lr
        np.sqrt(den, out=den)
        den += self.eps
        step /= den
        _subtract(param, index, step)


#: Every optimiser rule by name; ``run --optimizer`` takes its choices here.
OPTIMIZERS: Dict[str, Type[Optimizer]] = {cls.name: cls for cls in (SGD, Adam)}


def get_optimizer(name, lr: float) -> Optimizer:
    """Build an optimiser by name with the given learning rate."""
    if isinstance(name, Optimizer):
        return name
    try:
        cls = OPTIMIZERS[name]
    except KeyError:
        raise ValueError(
            f"unknown optimizer {name!r}; available: {sorted(OPTIMIZERS)}"
        ) from None
    return cls(lr)
