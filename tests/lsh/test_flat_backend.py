"""Oracle and unit tests for the flat (vectorized CSR) tables of LSHIndex.

The ``BucketOracle`` in ``conftest.py`` is the reference: for identical
seeds :class:`~repro.lsh.tables.LSHIndex` must return byte-identical
candidate sets through any sequence of build / update / query operations.  These
tests drive both with the same randomized op sequences and assert exact
agreement.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsh.srp import FusedSRP, SignedRandomProjection
from repro.lsh.tables import MAX_BUCKET_BITS, LSHIndex


@pytest.fixture
def make_pair(bucket_oracle):
    """``(oracle, index)`` built from the same seed and shape."""

    def make(family, seed, dim=24, n_bits=5, n_tables=4):
        kwargs = dict(n_bits=n_bits, n_tables=n_tables, family=family, seed=seed)
        return bucket_oracle(dim, **kwargs), LSHIndex(dim, **kwargs)

    return make


def draw_vectors(rng, n, dim, family):
    vecs = rng.normal(size=(n, dim))
    if family == "dwta":
        # Sparse rows exercise the densification fallback.
        vecs[rng.random(vecs.shape) < 0.6] = 0.0
    return vecs


def assert_same_answers(oracle, index, rng, dim, n_queries=6, queries=None):
    if queries is None:
        queries = rng.normal(size=(n_queries, dim))
    for q, got in zip(queries, index.query_batch(queries)):
        # assert_array_equal ignores dtype; the ids must stay int64.
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, oracle.query(q))
    np.testing.assert_array_equal(index.query(queries[0]), oracle.query(queries[0]))


class TestEquivalence:
    @pytest.mark.parametrize("family", ["srp", "dwta"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_op_sequences(self, make_pair, family, seed):
        """build → (update → query)* gives identical candidates throughout."""
        dim = 24
        o, f = make_pair(family, seed, dim=dim)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
        data = draw_vectors(rng, 150, dim, family)
        o.build(data)
        f.build(data)
        assert_same_answers(o, f, rng, dim)
        for _ in range(10):
            # Ids beyond the built range force the flat tables to grow.
            ids = rng.integers(0, 200, size=rng.integers(1, 40))
            vecs = draw_vectors(rng, ids.size, dim, family)
            o.update(ids, vecs)
            f.update(ids, vecs)
            assert_same_answers(o, f, rng, dim)
        assert len(o) == len(f)

    def test_new_ids_only_skip_the_tombstone_filter(self, make_pair, rng):
        """Extras without tombstones: every stored entry is live.

        Updates that only add unseen ids leave no tombstone, so
        ``query_batch`` skips its liveness filter.  Twelve items in 32
        buckets per table leave most buckets empty, so some queries
        find nothing.
        """
        o, f = make_pair("srp", seed=9)
        data = rng.normal(size=(12, 24))
        o.build(data)
        f.build(data)
        for ids in ([12, 13, 17], [20, 14]):
            vecs = rng.normal(size=(len(ids), 24))
            o.update(ids, vecs)
            f.update(ids, vecs)
        assert sum(f._stale) == 0 and sum(f._extra_len) > 0
        queries = rng.normal(size=(24, 24))
        answers = [o.query(q) for q in queries]
        assert any(a.size == 0 for a in answers)
        assert any(a.size > 0 for a in answers)
        assert_same_answers(o, f, rng, 24, queries=queries)

    def test_duplicate_ids_last_wins(self, make_pair, rng):
        """Repeated ids in one update call keep the last vector."""
        o, f = make_pair("srp", seed=4)
        data = rng.normal(size=(50, 24))
        o.build(data)
        f.build(data)
        ids = np.array([3, 7, 3, 9, 3])
        vecs = rng.normal(size=(5, 24))
        o.update(ids, vecs)
        f.update(ids, vecs)
        assert_same_answers(o, f, rng, 24)

    def test_compaction_preserves_answers(self, make_pair, rng):
        """Force many compactions and check candidates never drift."""
        o, f = make_pair("srp", seed=5, dim=16)
        f.compact_garbage_frac = 0.05
        data = rng.normal(size=(64, 16))
        o.build(data)
        f.build(data)
        for _ in range(15):
            ids = rng.integers(0, 64, size=20)
            vecs = rng.normal(size=(20, 16))
            o.update(ids, vecs)
            f.update(ids, vecs)
            assert_same_answers(o, f, rng, 16)
        assert f.compactions > f.n_tables  # beyond the build ones

    def test_rebuild_after_updates(self, make_pair, rng):
        """build() discards the update history."""
        o, f = make_pair("srp", seed=6)
        data = rng.normal(size=(80, 24))
        f.build(data)
        ids = np.arange(30)
        f.update(ids, rng.normal(size=(30, 24)))
        o.build(data)
        f.build(data)
        assert_same_answers(o, f, rng, 24)

    def test_bucket_loads_match(self, make_pair, rng):
        """Same seed → same tables → identical load multisets per table,
        before and after items move (no emptied bucket is reported)."""
        o, f = make_pair("srp", seed=7)
        data = rng.normal(size=(120, 24))
        o.build(data)
        f.build(data)
        for _ in range(2):
            for lo, lf in zip(o.bucket_loads(), f.bucket_loads()):
                np.testing.assert_array_equal(np.sort(lo), np.sort(lf))
            ids = rng.integers(0, 120, size=40)
            vecs = rng.normal(size=(40, 24))
            o.update(ids, vecs)
            f.update(ids, vecs)

    @pytest.mark.parametrize("family", ["srp", "dwta"])
    def test_state_dict_round_trip(self, make_pair, family, rng):
        """A fresh same-seed index restored from state answers like the
        oracle, garbage and all."""
        o, f = make_pair(family, seed=8)
        data = draw_vectors(rng, 60, 24, family)
        o.build(data)
        f.build(data)
        ids = rng.integers(0, 80, size=30)
        vecs = draw_vectors(rng, 30, 24, family)
        o.update(ids, vecs)
        f.update(ids, vecs)
        restored = LSHIndex(24, n_bits=5, n_tables=4, family=family, seed=8)
        restored.load_state_dict(f.state_dict())
        assert restored.garbage_fraction() == 0.0
        assert_same_answers(o, restored, rng, 24)


class TestCodeSortedExtras:
    """Probes find their extras by binary search in the code-sorted cache."""

    @pytest.mark.parametrize("n_bits", [5, MAX_BUCKET_BITS])
    @pytest.mark.parametrize("tombstones", [False, True])
    def test_churn_matches_oracle(self, make_pair, rng, n_bits, tombstones):
        """Hundreds of extras, never compacted, against the oracle.

        With tombstones, random live ids move and id 7 is re-inserted at
        every step; the queries include the vector id 7 just left, whose
        old entries must all be filtered.  Without, only unseen ids are
        added.  At K = 20 the queries reuse stored vectors, so they
        collide at all.
        """
        dim = 24
        o, f = make_pair("srp", seed=11, dim=dim, n_bits=n_bits)
        f.compact_garbage_frac = np.inf
        data = rng.normal(size=(100, dim))
        o.build(data)
        f.build(data)
        vectors = dict(enumerate(data))
        next_id = 100
        for _ in range(12):
            if tombstones:
                ids = np.append(rng.integers(0, next_id, size=30), 7)
            else:
                ids = np.arange(next_id, next_id + 30)
                next_id += 30
            left = vectors[7]
            vecs = rng.normal(size=(ids.size, dim))
            vectors.update(zip(ids.tolist(), vecs))
            o.update(ids, vecs)
            f.update(ids, vecs)
            e_items, e_codes = f._all_extras()
            assert e_items.size == e_codes.size == sum(f._extra_len)
            assert (np.diff(e_codes) >= 0).all()
            queries = np.vstack([vecs[-4:], left, data[:3], rng.normal(size=(2, dim))])
            assert_same_answers(o, f, rng, dim, queries=queries)
        assert sum(f._extra_len) >= 300
        assert (sum(f._stale) > 0) == tombstones
        assert f.compactions == f.n_tables  # the build's only


class TestWidthBound:
    """The dense per-table bucket directory caps the table width."""

    def test_widest_table_builds_and_queries(self, rng):
        index = LSHIndex(8, n_bits=MAX_BUCKET_BITS, n_tables=1, seed=0)
        data = rng.normal(size=(20, 8))
        index.build(data)
        assert 3 in index.query(data[3])

    def test_one_bit_wider_is_rejected(self):
        with pytest.raises(ValueError, match=f"n_bits={MAX_BUCKET_BITS + 1} "):
            LSHIndex(8, n_bits=MAX_BUCKET_BITS + 1, n_tables=1, seed=0)


class TestFlatHashTables:
    """Storage edge cases, without the oracle."""

    @pytest.fixture
    def flat(self):
        return LSHIndex(8, n_bits=4, n_tables=3, seed=0)

    def test_empty_index_queries(self, flat, rng):
        assert flat.query(rng.normal(size=8)).size == 0
        results = flat.query_batch(rng.normal(size=(4, 8)))
        assert len(results) == 4
        assert all(r.size == 0 for r in results)

    def test_len_and_clear(self, flat, rng):
        flat.build(rng.normal(size=(30, 8)))
        assert len(flat) == 30
        flat.clear()
        assert len(flat) == 0
        assert flat.query(rng.normal(size=8)).size == 0

    def test_update_before_build_inserts(self, flat, rng):
        flat.update(np.array([5, 2]), rng.normal(size=(2, 8)))
        assert len(flat) == 2
        assert flat.n_slots == 6

    def test_empty_update_is_noop(self, flat, rng):
        flat.build(rng.normal(size=(10, 8)))
        flat.update(np.empty(0, dtype=int), np.empty((0, 8)))
        assert len(flat) == 10

    def test_mismatched_ids_vectors_raise(self, flat, rng):
        with pytest.raises(ValueError):
            flat.update(np.array([0, 1]), rng.normal(size=(3, 8)))

    def test_negative_ids_raise(self, flat, rng):
        with pytest.raises(ValueError):
            flat.update(np.array([-1]), rng.normal(size=(1, 8)))

    def test_tiny_table_garbage_stays_bounded_under_churn(self, rng):
        """The compaction threshold is a pure fraction of live items.

        The old trigger had a fixed absolute floor (garbage > 32), so a
        tiny table could accumulate tombstones worth many times its live
        size before ever compacting.  With 8 live items and
        ``compact_garbage_frac=0.5`` the fraction must stay bounded by
        roughly frac/(1+frac) at every point of a long churn sequence.
        """
        flat = LSHIndex(8, n_bits=4, n_tables=3, seed=7)
        assert flat.compact_garbage_frac == 0.5
        flat.build(rng.normal(size=(8, 8)))
        bound = 0.5 / 1.5 + 0.15  # frac/(1+frac) plus batch-grain slack
        for _ in range(300):
            ids = rng.integers(0, 8, size=rng.integers(1, 4))
            flat.update(np.unique(ids), rng.normal(size=(np.unique(ids).size, 8)))
            assert flat.garbage_fraction() <= bound
        assert flat.compactions > 0
        assert len(flat) == 8

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_built=st.integers(0, 12),
        family=st.sampled_from(["srp", "dwta"]),
    )
    def test_garbage_fraction_never_exceeds_compaction_threshold(
        self, seed, n_built, family
    ):
        """After every update each table holds at most
        ``compact_garbage_frac`` × its live items as garbage and scans at
        least its live items, so the index's garbage fraction never
        exceeds ``compact_garbage_frac``, through updates of fresh ids,
        re-inserted ids and repeats within a call."""
        rng = np.random.default_rng(seed)
        index = LSHIndex(8, n_bits=3, n_tables=3, family=family, seed=seed)
        index.build(draw_vectors(rng, n_built, 8, family))
        for _ in range(40):
            # Ids up to three past the stored ones: fresh and re-inserted.
            ids = rng.integers(0, index.n_slots + 3, size=rng.integers(1, 6))
            index.update(ids, draw_vectors(rng, ids.size, 8, family))
            assert index.garbage_fraction() <= index.compact_garbage_frac

    def test_public_compact_repacks_all_dirty_tables(self, rng):
        flat = LSHIndex(8, n_bits=4, n_tables=3, seed=11)
        flat.compact_garbage_frac = 50.0  # nothing compacts on its own
        flat.build(rng.normal(size=(20, 8)))
        queries = rng.normal(size=(5, 8))
        for _ in range(10):
            ids = np.unique(rng.integers(0, 20, size=6))
            flat.update(ids, rng.normal(size=(ids.size, 8)))
        assert flat.garbage_fraction() > 0.0
        before = [flat.query(q).copy() for q in queries]
        assert flat.compact() > 0
        assert flat.garbage_fraction() == 0.0
        assert flat.compact() == 0  # clean tables are left alone
        for q, expect in zip(queries, before):
            np.testing.assert_array_equal(flat.query(q), expect)


class TestMakeFusedBank:
    """The fused L-table hasher an index builds for its family."""

    def test_mismatched_shapes_rejected(self):
        rng = np.random.default_rng(0)
        fns = [
            SignedRandomProjection(8, 4, rng),
            SignedRandomProjection(8, 5, rng),
        ]
        with pytest.raises(ValueError):
            FusedSRP(fns)
