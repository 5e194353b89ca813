"""Model registry: immutable servable MLPs from ``.npz`` archives.

Training produces kind-tagged archives (:mod:`repro.nn.serialize`);
serving needs the inverse with stronger guarantees.  Only MLPs are
served: anything else is refused with a ``TypeError``, and an archive
of another kind with :func:`~repro.nn.serialize.load_mlp`'s one-line
``ValueError``.

* **Immutability.**  A loaded model's parameter arrays are frozen
  (``writeable=False``), so no handler, probe or head can silently
  perturb the weights a thousand in-flight requests share.  Dense
  weights are frozen row-major: trainers keep ``W`` column-major for
  their node gathers, but a forward-only trunk at serving's small
  micro-batches runs faster row-major.
* **Version pins.**  Every load computes a content digest of the
  parameter arrays; a registry entry can pin the expected digest so a
  deploy that picks up the wrong checkpoint fails at load time, not in
  production answers.
* **Corrupt-archive rejection.**  Loads go through
  :func:`repro.nn.serialize.load_mlp`, which reads the file once and
  turns truncated or garbled archives into a clear ``ValueError`` up
  front.

The fixed-pad forward (:meth:`ServableModel.predict_logproba` with
``pad_to``) is the mechanism behind the serving layer's bitwise
guarantee: BLAS picks different kernels per GEMM *shape* (an ``m=1``
forward is a GEMV, a small-m forward is blocked differently), but at a
fixed shape each output row depends only on its own input row.  Padding
every batch to the same row count therefore makes each row's bits
independent of how many requests happened to share its micro-batch.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..backend import active_backend
from ..nn.network import MLP
from ..nn.serialize import load_mlp

__all__ = ["ServableModel", "ModelRegistry", "load_servable", "weights_digest"]


def weights_digest(arrays) -> str:
    """Short content digest over parameter arrays (order-sensitive)."""
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:12]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class ServableModel:
    """An immutable, versioned MLP ready to answer inference requests.

    Parameters
    ----------
    model:
        A trained :class:`~repro.nn.network.MLP`; anything else raises
        ``TypeError``.  Its parameter arrays are frozen in place, after
        each column-major ``W`` is replaced by a row-major copy.
    name, version:
        Registry identity; ``version`` defaults to the content digest.
    """

    def __init__(
        self, model: MLP, name: str = "model", version: Optional[str] = None
    ):
        if not isinstance(model, MLP):
            raise TypeError(
                f"cannot serve a {type(model).__name__}; expected an MLP"
            )
        params = []
        for layer in model.layers:
            layer.W = np.ascontiguousarray(layer.W)
            params += [_freeze(layer.W), _freeze(layer.b)]
        self.model = model
        self.name = str(name)
        self.digest = weights_digest(params)
        self.version = self.digest if version is None else str(version)

    # ------------------------------------------------------------------
    @property
    def input_dim(self) -> int:
        return self.model.layer_sizes[0]

    @property
    def n_outputs(self) -> int:
        return self.model.n_outputs

    def output_layer(self):
        """The final dense layer (the ALSH head indexes its columns)."""
        return self.model.layers[-1]

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def _padded(self, x: np.ndarray, pad_to: Optional[int]) -> Tuple[np.ndarray, int]:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        m = x.shape[0]
        if pad_to is None or m == pad_to:
            return x, m
        if m > pad_to:
            raise ValueError(f"batch of {m} rows exceeds pad_to={pad_to}")
        pad = np.broadcast_to(x[:1], (pad_to - m,) + x.shape[1:])
        return np.concatenate([x, pad], axis=0), m

    def predict_logproba(
        self, x: np.ndarray, pad_to: Optional[int] = None
    ) -> np.ndarray:
        """Log class probabilities for a batch of flat rows.

        With ``pad_to=M`` the forward always runs at exactly ``M`` rows
        (short batches repeat their first row as filler, then slice),
        which pins the BLAS kernel choice and makes every row's result
        bit-identical regardless of batch composition — the serving
        layer's bitwise-batching mode.
        """
        xp, m = self._padded(x, pad_to)
        return self.model.predict_logproba(xp)[:m]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions."""
        return self.model.predict(x)

    def trunk_forward(
        self, x: np.ndarray, pad_to: Optional[int] = None
    ) -> np.ndarray:
        """Activations entering the output layer (the shared trunk).

        The multi-tenant scenario serves thousands of per-user heads on
        top of this one computation; the ALSH top-k head consumes it as
        its query batch.
        """
        a, m = self._padded(x, pad_to)
        backend = active_backend()
        relu = self.model.hidden_activation
        for layer in self.model.layers[:-1]:
            a = backend.apply_activation(relu, layer.forward(a))
        return a[:m]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServableModel({self.name}@{self.version})"


def load_servable(
    path: Union[str, Path], name: str = "model", version: Optional[str] = None
) -> ServableModel:
    """Load an MLP archive into a :class:`ServableModel`, reading it once.

    Raises what :func:`~repro.nn.serialize.load_mlp` raises (a corrupt
    archive, another kind, another activation), and a ``ValueError``
    when ``version`` names a digest pin the archive's content does not
    match.
    """
    servable = ServableModel(load_mlp(path), name=name, version=version)
    if servable.version != servable.digest:
        raise ValueError(
            f"{path} digest {servable.digest} does not match the pinned "
            f"version {version} for model {name!r}"
        )
    return servable


class ModelRegistry:
    """Named, versioned servable models loaded from checkpoint archives.

    ``register`` loads eagerly so a bad checkpoint fails the deploy, not
    the first request.  Each name maps to one *current* servable; older
    versions stay retrievable by digest (in-flight requests may hold
    them) until :meth:`unregister` drops the name.
    """

    def __init__(self) -> None:
        self._current: Dict[str, ServableModel] = {}
        self._versions: Dict[Tuple[str, str], ServableModel] = {}

    def register(
        self,
        name: str,
        source: Union[str, Path, MLP, ServableModel],
        version: Optional[str] = None,
    ) -> ServableModel:
        """Load/adopt a model under ``name``; returns the servable.

        ``source`` may be an MLP archive's path, a live MLP, or an
        existing :class:`ServableModel`; anything else raises
        ``TypeError``.  ``version`` pins the expected content digest for
        path sources and overrides the label otherwise.
        """
        if isinstance(source, (str, os.PathLike)):
            servable = load_servable(source, name=name, version=version)
        elif isinstance(source, ServableModel):
            servable = source
            servable.name = str(name)
            if version is not None and servable.digest != version:
                raise ValueError(
                    f"servable digest {servable.digest} does not match the "
                    f"pinned version {version} for model {name!r}"
                )
        else:
            servable = ServableModel(source, name=name, version=version)
        self._current[str(name)] = servable
        self._versions[(str(name), servable.version)] = servable
        return servable

    def get(self, name: str, version: Optional[str] = None) -> ServableModel:
        """The current servable for ``name`` (or a pinned ``version``)."""
        if version is not None:
            try:
                return self._versions[(str(name), str(version))]
            except KeyError:
                raise KeyError(
                    f"no model {name!r} at version {version!r} registered"
                ) from None
        try:
            return self._current[str(name)]
        except KeyError:
            raise KeyError(
                f"no model {name!r} registered; "
                f"available: {', '.join(sorted(self._current)) or '(none)'}"
            ) from None

    def unregister(self, name: str) -> None:
        """Drop a name and every version registered under it."""
        self._current.pop(str(name), None)
        for key in [k for k in self._versions if k[0] == str(name)]:
            del self._versions[key]

    def names(self) -> List[str]:
        return sorted(self._current)

    def __contains__(self, name: str) -> bool:
        return str(name) in self._current

    def __len__(self) -> int:
        return len(self._current)
