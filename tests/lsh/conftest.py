"""A plain NumPy bucket oracle for :class:`~repro.lsh.tables.LSHIndex`."""

import numpy as np
import pytest

from repro.lsh.dwta import DensifiedWTA
from repro.lsh.srp import SignedRandomProjection

FAMILIES = {"srp": SignedRandomProjection, "dwta": DensifiedWTA}


class BucketOracle:
    """Per-table hashing into an ``(L, n)`` array of codes by item id.

    The hash functions come from the same seed in the same order as
    ``LSHIndex``'s, but every table is hashed on its own, so the fused
    multi-table hashers are checked against per-table hashing.  Code -1
    marks an id never inserted.
    """

    def __init__(self, dim, n_bits=6, n_tables=5, family="srp", seed=None):
        rng = np.random.default_rng(seed)
        self.fns = [FAMILIES[family](dim, n_bits, rng=rng) for _ in range(n_tables)]
        self.codes = np.full((n_tables, 0), -1, dtype=np.int64)

    def _hash(self, vectors):
        return np.stack([fn.hash(np.atleast_2d(vectors)) for fn in self.fns])

    def build(self, vectors):
        self.codes = self._hash(vectors)

    def update(self, ids, vectors):
        ids = np.asarray(ids)
        # NumPy leaves unspecified which write wins when a fancy index
        # repeats, so keep each id's last occurrence explicitly.
        _, last_from_end = np.unique(ids[::-1], return_index=True)
        keep = ids.size - 1 - last_from_end
        ids, vectors = ids[keep], np.atleast_2d(vectors)[keep]
        n = max(self.codes.shape[1], int(ids.max()) + 1)
        grown = np.full((len(self.fns), n), -1, dtype=np.int64)
        grown[:, : self.codes.shape[1]] = self.codes
        grown[:, ids] = self._hash(vectors)
        self.codes = grown

    def query(self, vector):
        """Sorted ids sharing the query's code in at least one table."""
        return np.flatnonzero((self.codes == self._hash(vector)).any(axis=0))

    def bucket_loads(self):
        return [
            np.unique(row[row >= 0], return_counts=True)[1] for row in self.codes
        ]

    def __len__(self):
        return int((self.codes[0] >= 0).sum())


@pytest.fixture
def bucket_oracle():
    """The :class:`BucketOracle` class, for tests to build per seed."""
    return BucketOracle
