"""Unit tests for repro.lsh.tables — the multi-table index."""

import numpy as np
import pytest

from repro.lsh.tables import LSHIndex


@pytest.fixture
def vectors(rng):
    return rng.normal(size=(50, 12))


class TestLSHIndex:
    def test_self_query_recall(self, rng, vectors):
        index = LSHIndex(12, n_bits=6, n_tables=5, seed=0)
        index.build(vectors)
        for i in range(50):
            assert i in index.query(vectors[i])

    def test_union_grows_with_tables(self, vectors):
        """More tables can only enlarge the candidate union (same seeds)."""
        q = vectors[0] + 0.1
        small = LSHIndex(12, n_bits=6, n_tables=2, seed=1)
        large = LSHIndex(12, n_bits=6, n_tables=8, seed=1)
        small.build(vectors)
        large.build(vectors)
        # Tables share the seed stream so the first 2 of `large` == `small`.
        assert set(small.query(q)) <= set(large.query(q))

    def test_update_subset(self, rng, vectors):
        index = LSHIndex(12, n_bits=8, n_tables=3, seed=2)
        index.build(vectors)
        moved = -vectors[:3]
        index.update(np.arange(3), moved)
        for i in range(3):
            assert i in index.query(moved[i])

    def test_query_batch_matches_single(self, rng, vectors):
        index = LSHIndex(12, n_bits=5, n_tables=4, seed=3)
        index.build(vectors)
        queries = rng.normal(size=(6, 12))
        batch = index.query_batch(queries)
        for i in range(6):
            np.testing.assert_array_equal(batch[i], index.query(queries[i]))

    def test_results_sorted_unique(self, rng, vectors):
        index = LSHIndex(12, seed=4)
        index.build(vectors)
        res = index.query(rng.normal(size=12))
        assert np.array_equal(res, np.unique(res))

    def test_rebuild_replaces_contents(self, rng, vectors):
        index = LSHIndex(12, seed=5)
        index.build(vectors)
        index.build(vectors[:10])
        assert len(index) == 10
        candidates = index.query(vectors[0])
        assert (candidates < 10).all()

    def test_memory_bytes_positive_and_grows(self, rng, vectors):
        small = LSHIndex(12, n_tables=2, seed=6)
        small.build(vectors)
        large = LSHIndex(12, n_tables=8, seed=6)
        large.build(vectors)
        assert 0 < small.memory_bytes() < large.memory_bytes()

    def test_invalid_tables(self):
        with pytest.raises(ValueError):
            LSHIndex(4, n_tables=0)

    def test_near_duplicates_usually_collide(self, rng):
        """Tiny perturbations should land in the same candidate set."""
        base = rng.normal(size=(30, 16))
        index = LSHIndex(16, n_bits=4, n_tables=6, seed=7)
        index.build(base)
        hits = 0
        for i in range(30):
            q = base[i] + rng.normal(scale=1e-4, size=16)
            hits += i in index.query(q)
        assert hits >= 28
