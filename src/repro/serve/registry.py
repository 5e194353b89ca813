"""Model registry: immutable servable models from ``.npz`` checkpoints.

Training produces kind-tagged archives (:mod:`repro.nn.serialize`);
serving needs the inverse with stronger guarantees:

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
  :func:`repro.nn.serialize.read_archive`, which turns truncated or
  garbled archives into a clear ``ValueError`` up front.

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
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..backend import active_backend
from ..nn.conv import ConvClassifier
from ..nn.network import MLP
from ..nn.serialize import read_archive

__all__ = ["ServableModel", "ModelRegistry", "load_servable", "weights_digest"]

_KIND_LOADERS = ("mlp", "conv_classifier")


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
    """An immutable, versioned model ready to answer inference requests.

    Parameters
    ----------
    model:
        A trained :class:`~repro.nn.network.MLP` or
        :class:`~repro.nn.conv.ConvClassifier`.  Its parameter arrays
        are frozen in place, after any column-major dense ``W`` is
        replaced by a row-major copy.
    name, version:
        Registry identity; ``version`` defaults to the content digest.
    """

    def __init__(self, model, name: str = "model", version: Optional[str] = None):
        if isinstance(model, MLP):
            self.kind = "mlp"
            self._mlp = model
            dense, params = model.layers, []
        elif isinstance(model, ConvClassifier):
            self.kind = "conv_classifier"
            self._mlp = None
            dense = model.head.layers
            params = [
                a
                for conv, _ in model.extractor.stages
                for a in (conv.kernels, conv.bias)
            ]
        else:
            raise TypeError(
                f"cannot serve a {type(model).__name__}; expected MLP or "
                "ConvClassifier"
            )
        for layer in dense:
            layer.W = np.ascontiguousarray(layer.W)
            params += [layer.W, layer.b]
        self.model = model
        self.name = str(name)
        for arr in params:
            _freeze(arr)
        self.digest = weights_digest(params)
        self.version = self.digest if version is None else str(version)

    # ------------------------------------------------------------------
    @property
    def supports_head(self) -> bool:
        """Whether an ALSH top-k head can sit on this model (MLP only)."""
        return self.kind == "mlp"

    @property
    def input_dim(self) -> int:
        if self.kind == "mlp":
            return self.model.layer_sizes[0]
        raise AttributeError("conv servables take NCHW images, not flat rows")

    @property
    def n_outputs(self) -> int:
        if self.kind == "mlp":
            return self.model.n_outputs
        return self.model.head.n_outputs

    def output_layer(self):
        """The final dense layer (the ALSH head indexes its columns)."""
        net = self.model if self.kind == "mlp" else self.model.head
        return net.layers[-1]

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
        if self.kind != "mlp":
            raise TypeError("predict_logproba requires an MLP servable")
        xp, m = self._padded(x, pad_to)
        return self._mlp.predict_logproba(xp)[:m]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Hard class predictions (both model kinds)."""
        return self.model.predict(x)

    def trunk_forward(
        self, x: np.ndarray, pad_to: Optional[int] = None
    ) -> np.ndarray:
        """Activations entering the output layer (the shared trunk).

        The multi-tenant scenario serves thousands of per-user heads on
        top of this one computation; the ALSH top-k head consumes it as
        its query batch.
        """
        if self.kind != "mlp":
            raise TypeError("trunk_forward requires an MLP servable")
        xp, m = self._padded(x, pad_to)
        a = xp
        backend = active_backend()
        net = self._mlp
        for layer in net.layers[:-1]:
            a = backend.apply_activation(net.hidden_activation, layer.forward(a))
        return a[:m]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ServableModel({self.name}@{self.version}, kind={self.kind})"


def load_servable(
    path: Union[str, Path], name: str = "model", version: Optional[str] = None
) -> ServableModel:
    """Load any kind-tagged checkpoint into a :class:`ServableModel`.

    Sniffs the archive's ``kind`` marker and dispatches to the matching
    restorer; raises ``ValueError`` for corrupt archives, unknown kinds
    and — when ``version`` names a digest pin — checkpoints whose
    content digest does not match the pin.
    """
    from ..nn.serialize import load_conv, load_mlp

    path = Path(path)
    archive = read_archive(path)
    if "meta" not in archive:
        raise ValueError(f"{path} is not a saved model (no meta entry)")
    meta = json.loads(archive["meta"].tobytes().decode())
    kind = meta.get("kind", "mlp")
    if kind not in _KIND_LOADERS:
        raise ValueError(
            f"{path} holds unservable kind {kind!r}; "
            f"expected one of {_KIND_LOADERS}"
        )
    model = load_mlp(path) if kind == "mlp" else load_conv(path)
    servable = ServableModel(model, name=name)
    if version is not None and servable.digest != version:
        raise ValueError(
            f"{path} digest {servable.digest} does not match the pinned "
            f"version {version} for model {name!r}"
        )
    if version is not None:
        servable.version = version
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
        source: Union[str, Path, MLP, ConvClassifier, ServableModel],
        version: Optional[str] = None,
    ) -> ServableModel:
        """Load/adopt a model under ``name``; returns the servable.

        ``source`` may be a checkpoint path, a live model object, or an
        existing :class:`ServableModel`.  ``version`` pins the expected
        content digest for path sources and overrides the label
        otherwise.
        """
        if isinstance(source, ServableModel):
            servable = source
            servable.name = str(name)
            if version is not None and servable.digest != version:
                raise ValueError(
                    f"servable digest {servable.digest} does not match the "
                    f"pinned version {version} for model {name!r}"
                )
        elif isinstance(source, (MLP, ConvClassifier)):
            servable = ServableModel(source, name=name, version=version)
        else:
            servable = load_servable(source, name=name, version=version)
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
