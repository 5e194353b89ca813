"""Densified Winner-Take-All (DWTA) hashing.

SRP/SimHash is the textbook LSH family, but the system the paper's
ALSH-approx descends from (SLIDE, and the later revisions of Spring &
Shrivastava's line of work) hashes with *winner-take-all* permutations:
each hash value is the index of the largest coordinate within a random
subset of dimensions.  WTA hashing is sensitive to *order* statistics
rather than angles, needs no floating-point projections at query time, and
is empirically better suited to the sparse, non-negative activation
vectors ReLU networks produce.

The "densified" variant (Shrivastava 2017) fixes plain WTA's failure on
sparse vectors: when a bin contains no non-zero coordinate, its value is
borrowed from a neighbouring bin via a fixed rotation schedule, so every
bin always produces a valid hash.

This module provides :class:`DensifiedWTA` with the same interface as
:class:`~repro.lsh.srp.SignedRandomProjection`, so the two families are
drop-in interchangeable in :class:`~repro.lsh.tables.LSHIndex` and the
ALSH trainer (see the ``hash_family`` option), and :class:`FusedDWTA`,
the L-table hasher an index of family ``"dwta"`` builds.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["DensifiedWTA", "FusedDWTA"]


class DensifiedWTA:
    """A K-bin densified winner-take-all hash over ``dim`` dimensions.

    Parameters
    ----------
    dim:
        Input dimensionality.
    n_bits:
        Number of output "bits" worth of bucket address.  Internally the
        hash uses ``n_bins`` bins of ``bin_size`` permuted coordinates and
        packs the argmax indices into an integer; ``n_bits`` controls the
        packed width (bucket space is ``2^n_bits``, matching the SRP
        interface so tables are interchangeable).
    bin_size:
        Coordinates per WTA bin (the classic WTA "k"); each bin
        contributes ``log2(bin_size)`` bits.
    rng:
        Source of the random permutation.
    """

    def __init__(
        self,
        dim: int,
        n_bits: int,
        bin_size: int = 8,
        rng: Optional[np.random.Generator] = None,
    ):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        if not 1 <= n_bits <= 62:
            raise ValueError(f"n_bits must be in [1, 62], got {n_bits}")
        if bin_size < 2 or bin_size & (bin_size - 1):
            raise ValueError(f"bin_size must be a power of two >= 2, got {bin_size}")
        rng = rng if rng is not None else np.random.default_rng()
        self.dim = int(dim)
        self.n_bits = int(n_bits)
        self.bin_size = int(bin_size)
        self._bits_per_bin = int(np.log2(bin_size))
        self.n_bins = max(1, -(-n_bits // self._bits_per_bin))

        # One long permutation cycled over the input provides the bins;
        # repeating the permutation when n_bins * bin_size > dim keeps
        # every bin populated for any dim.
        needed = self.n_bins * self.bin_size
        reps = -(-needed // dim)
        perm = np.concatenate([rng.permutation(dim) for _ in range(reps)])
        self._bins = perm[:needed].reshape(self.n_bins, self.bin_size)
        # Densification rotation offsets (fixed per hash function).
        self._rotation = rng.permutation(self.n_bins)

    @property
    def n_buckets(self) -> int:
        """Number of addressable buckets, ``2^n_bits``."""
        return 1 << self.n_bits

    def _bin_argmax(self, vectors: np.ndarray) -> np.ndarray:
        """Argmax index within every bin; -1 where the bin is all-zero."""
        gathered = vectors[:, self._bins]  # (n, n_bins, bin_size)
        arg = gathered.argmax(axis=2)
        empty = (gathered != 0.0).sum(axis=2) == 0
        arg[empty] = -1
        return arg

    def signatures(self, vectors: np.ndarray) -> np.ndarray:
        """Densified per-bin winner indices, shape ``(n, n_bins)``.

        Empty bins borrow the winner of the next non-empty bin along the
        fixed rotation (densification); an all-zero vector densifies to
        all-zero winners.
        """
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected vectors of dim {self.dim}, got {vectors.shape[1]}"
            )
        arg = self._bin_argmax(vectors)
        if (arg < 0).any():
            for row in range(arg.shape[0]):
                missing = np.nonzero(arg[row] < 0)[0]
                if missing.size == 0:
                    continue
                filled = np.nonzero(arg[row] >= 0)[0]
                if filled.size == 0:
                    arg[row] = 0  # all-zero vector: degenerate but valid
                    continue
                for b in missing:
                    # Walk the rotation until a filled bin is found.
                    for step in range(1, self.n_bins + 1):
                        candidate = self._rotation[
                            (np.nonzero(self._rotation == b)[0][0] + step)
                            % self.n_bins
                        ]
                        if arg[row, candidate] >= 0:
                            arg[row, b] = arg[row, candidate]
                            break
        return arg

    def hash(self, vectors: np.ndarray) -> np.ndarray:
        """Integer bucket ids in ``[0, 2^n_bits)`` for a batch of vectors."""
        winners = self.signatures(vectors)
        codes = np.zeros(winners.shape[0], dtype=np.int64)
        for b in range(self.n_bins):
            codes = (codes << self._bits_per_bin) | winners[:, b].astype(np.int64)
        mask = (1 << self.n_bits) - 1
        return codes & mask


class FusedDWTA:
    """L DWTA functions hashed together through one fused gather.

    The WTA analogue of :class:`~repro.lsh.srp.FusedSRP`: the bin
    permutations of all L functions are stacked into one ``(L, n_bins,
    bin_size)`` index tensor, so a query batch gathers and arg-maxes every
    table's bins in a single vectorized pass instead of L separate calls.
    Rows that hit an empty bin (sparse vectors) fall back to the owning
    function's reference densification path, so codes are identical to
    calling each function's :meth:`~DensifiedWTA.hash` separately.
    """

    def __init__(self, fns: Sequence[DensifiedWTA]):
        if not fns:
            raise ValueError("need at least one hash function")
        shapes = {(fn.dim, fn.n_bits, fn.bin_size) for fn in fns}
        if len(shapes) != 1:
            raise ValueError(
                "fused DWTA functions must share dim, n_bits and bin_size"
            )
        self.fns = list(fns)
        self.dim = fns[0].dim
        self.n_bits = fns[0].n_bits
        self.n_fns = len(fns)
        self._bins = np.stack([fn._bins for fn in fns])  # (L, n_bins, bin_size)
        self._n_bins = fns[0].n_bins
        self._bits_per_bin = fns[0]._bits_per_bin

    def hash_all(self, vectors: np.ndarray) -> np.ndarray:
        """Codes for all functions at once, shape ``(n_vectors, L)``."""
        vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
        if vectors.shape[1] != self.dim:
            raise ValueError(
                f"expected vectors of dim {self.dim}, got {vectors.shape[1]}"
            )
        gathered = vectors[:, self._bins]  # (n, L, n_bins, bin_size)
        arg = gathered.argmax(axis=3).astype(np.int64)
        codes = np.zeros(arg.shape[:2], dtype=np.int64)
        for b in range(self._n_bins):
            codes = (codes << self._bits_per_bin) | arg[:, :, b]
        codes &= (1 << self.n_bits) - 1
        empty = ~(gathered != 0.0).any(axis=3)  # (n, L, n_bins)
        if empty.any():
            rows, tables = np.nonzero(empty.any(axis=2))
            for r, t in zip(rows.tolist(), tables.tolist()):
                codes[r, t] = self.fns[t].hash(vectors[r : r + 1])[0]
        return codes
