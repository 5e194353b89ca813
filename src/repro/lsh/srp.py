"""Signed random projection (SimHash) hash family.

ALSH-approx hashes layer inputs and weight columns with K-bit signatures
built from K random hyperplanes (§5.2: "L independent hash tables with 2^K
hash buckets and a K-bit randomized hash function").  For unit vectors the
per-bit collision probability is the classic ``1 − θ/π`` where θ is the
angle between the vectors; :func:`collision_probability` exposes that
analytic value so tests can compare empirical collision rates against it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..backend import active_backend

__all__ = [
    "SignedRandomProjection",
    "FusedSRP",
    "pack_bits",
    "collision_probability",
]


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(..., K)`` bool array into little-endian int64 codes.

    Equivalent to ``bits @ [1, 2, 4, ...]`` but shift-accumulates over the
    K axis instead of materializing an int64 copy of the whole bit matrix,
    so only the ``(...)``-shaped accumulator is ever allocated.
    """
    codes = np.zeros(bits.shape[:-1], dtype=np.int64)
    for k in range(bits.shape[-1]):
        codes |= bits[..., k].astype(np.int64) << k
    return codes


class SignedRandomProjection:
    """A K-bit SimHash function over ``dim``-dimensional vectors.

    Each bit is the sign of a projection onto an independent Gaussian
    direction; the K bits are packed into a single integer bucket id in
    ``[0, 2^K)``.
    """

    def __init__(self, dim: int, n_bits: int, rng: Optional[np.random.Generator] = None):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if not 1 <= n_bits <= 62:
            raise ValueError(f"n_bits must be in [1, 62], got {n_bits}")
        rng = rng if rng is not None else np.random.default_rng()
        self.dim = int(dim)
        self.n_bits = int(n_bits)
        self.planes = rng.normal(size=(dim, n_bits))

    @property
    def n_buckets(self) -> int:
        """Number of addressable buckets, ``2^K``."""
        return 1 << self.n_bits

    @property
    def nbytes(self) -> int:
        """Memory footprint of the hyperplane matrix."""
        return self.planes.nbytes

    def signatures(self, vectors: np.ndarray) -> np.ndarray:
        """Bit matrix of signs, shape ``(n_vectors, n_bits)``."""
        vectors = np.atleast_2d(vectors)
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected vectors of dim {self.dim}, got {vectors.shape[1]}"
            )
        return active_backend().matmul(vectors, self.planes) >= 0.0

    def hash(self, vectors: np.ndarray) -> np.ndarray:
        """Integer bucket ids in ``[0, 2^K)`` for a batch of vectors."""
        return pack_bits(self.signatures(vectors))

    def hash_one(self, vector: np.ndarray) -> int:
        """Bucket id of a single vector.

        Fast path: projects the 1-D vector directly (one GEMV) without the
        ``atleast_2d`` round-trip of :meth:`hash`.
        """
        vector = np.asarray(vector, dtype=float).reshape(-1)
        if vector.shape[0] != self.dim:
            raise ValueError(
                f"expected a vector of dim {self.dim}, got {vector.shape[0]}"
            )
        bits = (vector @ self.planes) >= 0.0
        code = 0
        for k in range(self.n_bits):
            if bits[k]:
                code |= 1 << k
        return code


class FusedSRP:
    """L SRP functions hashed together through one fused GEMM.

    Hashing a query batch once per table costs L small matrix products.
    Stacking the hyperplanes of all L functions into a single
    ``(dim, L·K)`` operand turns the whole multi-table hash into one
    ``(B, dim) @ (dim, L·K)`` product followed by bit-packing, which is
    what makes :class:`~repro.lsh.tables.LSHIndex`'s query path a single
    BLAS call.

    All functions must share ``dim`` and ``n_bits``; per-column results
    are identical to calling each function's :meth:`hash` separately.
    """

    def __init__(self, fns: Sequence[SignedRandomProjection]):
        if not fns:
            raise ValueError("need at least one hash function")
        dims = {fn.dim for fn in fns}
        bits = {fn.n_bits for fn in fns}
        if len(dims) != 1 or len(bits) != 1:
            raise ValueError("fused SRP functions must share dim and n_bits")
        self.dim = fns[0].dim
        self.n_bits = fns[0].n_bits
        self.n_fns = len(fns)
        self.planes = np.concatenate([fn.planes for fn in fns], axis=1)

    def hash_all(self, vectors: np.ndarray) -> np.ndarray:
        """Codes for all functions at once, shape ``(n_vectors, L)``."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected vectors of dim {self.dim}, got {vectors.shape[1]}"
            )
        bits = active_backend().matmul(vectors, self.planes) >= 0.0  # the one GEMM
        return pack_bits(bits.reshape(vectors.shape[0], self.n_fns, self.n_bits))


def collision_probability(u: np.ndarray, v: np.ndarray, n_bits: int = 1) -> float:
    """Analytic SimHash collision probability ``(1 − θ/π)^n_bits``.

    θ is the angle between ``u`` and ``v``.  Degenerate zero vectors give an
    angle of π/2 (projections are symmetric coin flips on one side).
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        theta = np.pi / 2
    else:
        cos = np.clip(u @ v / (nu * nv), -1.0, 1.0)
        theta = float(np.arccos(cos))
    return float((1.0 - theta / np.pi) ** n_bits)
