"""Model archives: one writer and one reader for every ``.npz`` on disk.

Every archive the program writes is a NumPy ``.npz`` holding a JSON
``meta`` entry plus named arrays.  There are two kinds: a trained
:class:`~repro.nn.network.MLP` (:func:`save_mlp` / :func:`load_mlp`,
here) and a trainer checkpoint (:mod:`repro.nn.checkpoint`).  Both go
through :func:`write_archive` and :func:`load_archive`:

* the writer stamps ``format_version`` and ``kind`` into ``meta`` and
  saves atomically (:func:`atomic_savez`);
* the reader refuses, with one ``ValueError`` line that names the path,
  a truncated or corrupt file, a missing or undecodable ``meta``, a
  wrong kind and an unknown version.

An MLP archive also names its activations, which are constant: ReLU
hidden layers under a log-softmax output, the paper's network.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from .activations import LogSoftmax, ReLU
from .network import MLP

__all__ = [
    "save_mlp",
    "load_mlp",
    "write_archive",
    "load_archive",
    "atomic_savez",
    "read_archive",
]

_FORMAT_VERSION = 1
_META = "meta"
_MLP_KIND = "mlp"

#: Every archive kind the program writes, with the noun its refusals use.
_KINDS = {_MLP_KIND: "saved model", "trainer_checkpoint": "trainer checkpoint"}

#: An MLP archive's meta fields; the activation names never vary.
_MLP_ACTIVATIONS = {
    "hidden_activation": ReLU.name,
    "output_activation": LogSoftmax.name,
}

#: Everything ``np.load`` can raise on a truncated or garbled ``.npz`` —
#: a half-written zip directory (BadZipFile), a cut-off member (zlib
#: error / EOFError / struct.error) or a mangled ``.npy`` header
#: (ValueError / OSError).
_CORRUPT_ARCHIVE_ERRORS = (
    zipfile.BadZipFile,
    zlib.error,
    EOFError,
    struct.error,
    ValueError,
    OSError,
    KeyError,
)


def atomic_savez(path: Union[str, Path], arrays: Dict[str, np.ndarray]) -> Path:
    """Write an ``.npz`` archive atomically (same-dir temp + ``os.replace``).

    A crash at any point leaves either the previous archive or the new one
    intact, never a truncated file — the property the checkpoint/resume
    subsystem and the model savers rely on.  Returns ``path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            np.savez(f, **arrays)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise
    return path


def read_archive(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Load every array of an ``.npz`` archive, validating integrity.

    Raises ``FileNotFoundError`` for a missing file and a clear
    ``ValueError`` for truncated/corrupt archives (every member is read
    eagerly, so mid-file truncation cannot surface later as a confusing
    decompression error).
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(path)
    try:
        with np.load(path) as archive:
            return {name: archive[name] for name in archive.files}
    except _CORRUPT_ARCHIVE_ERRORS as exc:
        raise ValueError(
            f"{path} is not a readable .npz archive (truncated or corrupt): "
            f"{exc}"
        ) from exc


def write_archive(
    path: Union[str, Path],
    kind: str,
    meta: dict,
    arrays: Dict[str, np.ndarray],
) -> Path:
    """Atomically save ``arrays`` under a ``meta`` entry of ``kind``.

    ``meta`` follows ``format_version`` and ``kind`` in the JSON entry,
    in its own key order.  Returns the path written.
    """
    if _META in arrays:
        raise ValueError(f"array name {_META!r} is reserved")
    header = {"format_version": _FORMAT_VERSION, "kind": kind, **meta}
    entry = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    return atomic_savez(path, {_META: entry, **arrays})


def load_archive(
    path: Union[str, Path], kind: str, fields: Sequence[str]
) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read an archive of ``kind``: its decoded ``meta`` and other arrays.

    ``fields`` names the meta keys the caller reads.  Raises
    ``FileNotFoundError`` for a missing file and a one-line
    ``ValueError`` naming the path for a truncated or corrupt file, a
    missing or undecodable ``meta``, a wrong kind or an unknown version.
    Archives written before ``kind`` existed are all MLPs.
    """
    path = Path(path)
    arrays = read_archive(path)
    if _META not in arrays:
        raise ValueError(f"{path} is not a {_KINDS[kind]} (no meta entry)")
    try:
        meta = json.loads(arrays.pop(_META).tobytes().decode())
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ValueError(f"{path} has a corrupt meta entry: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{path} has a corrupt meta entry: not an object")
    found = meta.get("kind", _MLP_KIND)
    if found != kind:
        raise ValueError(f"{path} holds a {found!r} archive, expected {kind!r}")
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"{path} has unsupported format version "
            f"{meta.get('format_version')!r}; expected {_FORMAT_VERSION}"
        )
    missing = [key for key in fields if key not in meta]
    if missing:
        raise ValueError(f"{path} has a corrupt meta entry: no {missing[0]!r}")
    return meta, arrays


def _normalise_path(path: Union[str, Path]) -> Path:
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def save_mlp(net: MLP, path: Union[str, Path]) -> Path:
    """Serialise a network to ``path`` (``.npz`` appended if missing).

    Returns the path actually written.
    """
    arrays = {}
    for i, layer in enumerate(net.layers):
        arrays[f"W{i}"] = layer.W
        arrays[f"b{i}"] = layer.b
    meta = {"layer_sizes": list(net.layer_sizes), **_MLP_ACTIVATIONS}
    return write_archive(_normalise_path(path), _MLP_KIND, meta, arrays)


def load_mlp(path: Union[str, Path]) -> MLP:
    """Load a network saved by :func:`save_mlp`.

    Refuses, besides what :func:`load_archive` refuses, an archive whose
    meta names activations other than ReLU and log-softmax, or whose
    layer arrays are missing or misshapen.
    """
    path = Path(path)
    meta, arrays = load_archive(
        path, _MLP_KIND, ["layer_sizes", *_MLP_ACTIVATIONS]
    )
    for key, name in _MLP_ACTIVATIONS.items():
        if meta[key] != name:
            raise ValueError(
                f"{path} holds an MLP whose {key} is {meta[key]!r}; "
                f"only {name!r} loads"
            )
    net = MLP(meta["layer_sizes"], seed=0)
    for i, layer in enumerate(net.layers):
        try:
            w = arrays[f"W{i}"]
            b = arrays[f"b{i}"]
        except KeyError:
            raise ValueError(f"layer {i} arrays missing from {path}") from None
        if w.shape != layer.W.shape or b.shape != layer.b.shape:
            raise ValueError(f"layer {i} shape mismatch in {path}")
        # Row-major, whichever layout wrote it (a trainer's W is not).
        layer.W = np.ascontiguousarray(w)
        layer.b = b
    return net
