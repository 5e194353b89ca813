"""Tests for the MIPS engine (exact reference + ALSH index)."""

import numpy as np
import pytest

from repro.lsh.mips import MIPSIndex, exact_mips


class TestExactMIPS:
    def test_returns_true_argmax_first(self, rng):
        data = rng.normal(size=(40, 8))
        q = rng.normal(size=8)
        top = exact_mips(data, q, k=5)
        scores = data @ q
        assert top[0] == np.argmax(scores)
        # Results are sorted by decreasing inner product.
        assert list(scores[top]) == sorted(scores[top], reverse=True)

    def test_k_equals_n(self, rng):
        data = rng.normal(size=(10, 4))
        top = exact_mips(data, rng.normal(size=4), k=10)
        assert sorted(top) == list(range(10))

    @pytest.mark.parametrize("k", [0, 11])
    def test_invalid_k(self, k, rng):
        with pytest.raises(ValueError):
            exact_mips(rng.normal(size=(10, 4)), rng.normal(size=4), k=k)


class TestMIPSIndex:
    @pytest.fixture
    def data(self, rng):
        return rng.normal(size=(100, 16))

    def test_build_and_len(self, data):
        index = MIPSIndex(16, seed=0)
        index.build(data)
        assert len(index) == 100

    def test_dim_mismatch(self, data):
        index = MIPSIndex(8, seed=0)
        with pytest.raises(ValueError):
            index.build(data)

    def test_candidates_enriched_in_top_inner_products(self, data, rng):
        """Candidates returned by ALSH should skew towards the true MIPS
        winners far beyond the random-subset baseline."""
        index = MIPSIndex(16, n_bits=6, n_tables=6, seed=1)
        index.build(data)
        enrichments = []
        for trial in range(30):
            q = rng.normal(size=16)
            cands = index.query(q)
            if cands.size == 0:
                continue
            top20 = set(exact_mips(data, q, k=20).tolist())
            hit_rate = len(top20 & set(cands.tolist())) / cands.size
            enrichments.append(hit_rate)
        # Random subsets would score 0.2 on average.
        assert np.mean(enrichments) > 0.3

    def test_query_batch_matches_single(self, data, rng):
        index = MIPSIndex(16, seed=2)
        index.build(data)
        queries = rng.normal(size=(5, 16))
        batch = index.query_batch(queries)
        for i in range(5):
            np.testing.assert_array_equal(batch[i], index.query(queries[i]))

    def test_update_moves_items(self, data, rng):
        index = MIPSIndex(16, n_bits=6, n_tables=5, seed=3)
        index.build(data)
        # Make item 0 the best match for a known query direction and
        # re-index it; it should now be returned for that query.
        q = rng.normal(size=16)
        q /= np.linalg.norm(q)
        new_vec = 5.0 * q
        index.update(np.array([0]), new_vec.reshape(1, -1))
        assert 0 in index.query(q)

    def test_empty_update_is_noop(self, data, rng):
        index = MIPSIndex(16, seed=4)
        index.build(data)
        index.update(np.empty(0, dtype=int), np.empty((0, 16)))
        assert len(index) == 100

    def test_matches_bucket_oracle(self, data, rng, bucket_oracle):
        """Candidates equal the oracle's over the same transformed data."""
        index = MIPSIndex(16, seed=5)
        index.build(data)
        lsh = index.index
        oracle = bucket_oracle(lsh.dim, lsh.n_bits, lsh.n_tables, seed=5)
        oracle.build(index.transform.transform_data(data)[0])
        queries = rng.normal(size=(8, 16))
        for q, got in zip(queries, index.query_batch(queries)):
            expected = oracle.query(index.transform.transform_query_one(q))
            np.testing.assert_array_equal(got, expected)


class TestUpdateScaling:
    """update() must reuse the global P-transform scale fitted at build().

    Refitting on the update subset would rescale the *whole* asymmetric
    transform from whatever subset happens to be updated, so re-inserting
    unchanged vectors could move them to different buckets.
    """

    @pytest.fixture
    def data(self, rng):
        # Widely spread norms so a subset refit produces a visibly
        # different scale than the global fit.
        base = rng.normal(size=(80, 12))
        return base * np.linspace(0.1, 10.0, 80)[:, None]

    def test_scale_cached_at_build(self, data):
        index = MIPSIndex(12, seed=0)
        assert index.data_scale is None
        index.build(data)
        assert index.data_scale is not None

    def test_noop_update_preserves_candidates(self, data, rng):
        """Re-inserting unchanged vectors must not move any item."""
        index = MIPSIndex(12, n_bits=6, n_tables=5, seed=1)
        index.build(data)
        queries = rng.normal(size=(10, 12))
        before = index.query_batch(queries)
        ids = np.arange(5)  # small-norm rows: subset scale would differ
        index.update(ids, data[ids])
        after = index.query_batch(queries)
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a, b)

    def test_update_matches_fresh_build(self, data, rng):
        """A partial re-hash lands items where a full rebuild would."""
        updated = data.copy()
        ids = np.arange(10)
        updated[ids] = rng.normal(size=(10, 12)) * 0.2
        incremental = MIPSIndex(12, seed=2)
        incremental.build(data)
        incremental.update(ids, updated[ids])
        rebuilt = MIPSIndex(12, seed=2)
        rebuilt.build(data)  # fit the scale on the same original data
        rebuilt.update(np.arange(80), updated)
        queries = rng.normal(size=(10, 12))
        for a, b in zip(
            incremental.query_batch(queries), rebuilt.query_batch(queries)
        ):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("family", ["srp", "dwta"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_updates_before_build_share_the_first_scale(self, family, seed):
        """An index filled by updates alone caches its first fitted scale.

        Each update fitting its own subset would scale the small-norm
        second half differently from the first; with the cache, two
        updates index the rows exactly as one build does.
        """
        rng = np.random.default_rng(seed)
        data = np.vstack(
            [3.0 * rng.normal(size=(20, 12)), 0.3 * rng.normal(size=(20, 12))]
        )
        built = MIPSIndex(12, family=family, seed=seed)
        built.build(data)
        updated = MIPSIndex(12, family=family, seed=seed)
        updated.update(np.arange(20), data[:20])
        updated.update(np.arange(20, 40), data[20:])
        assert updated.data_scale == built.data_scale
        assert updated.scale_refits == 0
        queries = rng.normal(size=(10, 12))
        for a, b in zip(updated.query_batch(queries), built.query_batch(queries)):
            np.testing.assert_array_equal(a, b)

    def test_refused_update_caches_no_scale(self, rng):
        index = MIPSIndex(12, seed=0)
        with pytest.raises(ValueError):
            index.update(np.array([0, 1]), rng.normal(size=(3, 12)))
        assert index.data_scale is None and len(index) == 0

    def test_small_update_keeps_cached_scale(self, data, rng):
        """Updates inside the build-time norm envelope reuse the cache."""
        index = MIPSIndex(12, seed=5)
        index.build(data)
        before = index.data_scale
        ids = np.arange(4)
        index.update(ids, data[ids] * 0.5)
        assert index.scale_refits == 0
        assert index.data_scale == before

    def test_overflow_update_refits_scale(self, data, rng):
        """A column growing past the build-time max norm must refit.

        Reusing the cached factor would scale the new vector's norm past
        the transform's U bound, so its ``‖w‖^{2^i}`` padding terms blow
        up and dominate the hash codes — the item becomes effectively
        unfindable by the queries it should win.  update() must detect
        the overflow, refit on the update subset and adopt the tighter
        factor.
        """
        index = MIPSIndex(12, n_bits=6, n_tables=8, seed=6)
        index.build(data)
        before = index.data_scale
        norms = np.sqrt((data * data).sum(axis=1))
        giant_id = 7
        giant = data[int(np.argmax(norms))] * 10.0
        index.update(np.array([giant_id]), giant[None, :])
        assert index.scale_refits == 1
        assert index.data_scale < before  # tighter factor adopted
        updated = data.copy()
        updated[giant_id] = giant
        # The giant column wins the inner product for queries aligned
        # with it; with valid hash coordinates it must stay retrievable.
        queries = giant[None, :] + rng.normal(size=(20, 12)) * np.linalg.norm(giant) * 0.1
        hits = recalled = 0
        for q in queries:
            top = exact_mips(updated, q, k=1)
            if top[0] != giant_id:
                continue
            hits += 1
            if giant_id in index.query(q):
                recalled += 1
        assert hits > 10  # the giant really dominates brute-force MIPS
        assert recalled / hits >= 0.8


def adversarial_columns(kind, base):
    """An adversarial collection made from ``base``, and its groups of
    identical rows.  No row's norm grows, so an index built on ``base``
    keeps its scale through an update to the collection."""
    data = base.copy()
    if kind == "all_zero":
        data[:] = 0.0
        return data, [np.arange(len(data))]
    if kind == "zero_columns":
        rows = np.array([3, 11, 20])
        data[rows] = 0.0
        return data, [rows]
    data[[5, 17, 29]] = data[8]
    data[[2, 14]] = data[21]
    return data, [np.array([5, 8, 17, 29]), np.array([2, 14, 21])]


class TestAdversarialColumns:
    """Zero-norm, all-zero and duplicate columns through build and update."""

    @pytest.mark.parametrize("path", ["build", "update"])
    @pytest.mark.parametrize("kind", ["zero_columns", "all_zero", "duplicates"])
    @pytest.mark.parametrize("family", ["srp", "dwta"])
    def test_index_stays_sound(self, family, kind, path, rng, bucket_oracle):
        base = rng.normal(size=(30, 12))
        data, groups = adversarial_columns(kind, base)
        index = MIPSIndex(12, family=family, seed=7)
        if path == "build":
            index.build(data)
        else:
            # Two calls, so some duplicates are hashed in different batches.
            index.build(base)
            index.update(np.arange(15), data[:15])
            index.update(np.arange(15, 30), data[15:])
        assert index.scale_refits == 0
        transformed, _ = index.transform.transform_data(data, scale=index.data_scale)
        assert np.isfinite(transformed).all()
        lsh = index.index
        for group in groups:  # identical columns share every table's bucket
            codes = lsh.item_gcode[:, group]
            assert (codes == codes[:, :1]).all()
        oracle = bucket_oracle(
            lsh.dim, lsh.n_bits, lsh.n_tables, family=family, seed=7
        )
        oracle.build(transformed)
        # A dead activation vector, the base columns and random queries.
        queries = np.vstack([np.zeros((1, 12)), base, rng.normal(size=(33, 12))])
        hits = np.zeros(len(groups), dtype=int)
        for q, cands in zip(queries, index.query_batch(queries)):
            np.testing.assert_array_equal(cands, np.unique(cands))
            np.testing.assert_array_equal(index.query(q), cands)
            expected = oracle.query(index.transform.transform_query_one(q))
            np.testing.assert_array_equal(cands, expected)
            for g, group in enumerate(groups):
                hit = np.isin(group, cands)
                assert hit.all() or not hit.any()
                hits[g] += hit.all()
        assert (hits > 0).all() and (hits < len(queries)).all()
