"""Tests for densified winner-take-all hashing."""

import numpy as np
import pytest

from repro.lsh.dwta import DensifiedWTA
from repro.lsh.tables import HASH_FAMILIES, LSHIndex


class TestConstruction:
    def test_bucket_count(self, rng):
        fn = DensifiedWTA(16, 6, rng=rng)
        assert fn.n_buckets == 64

    @pytest.mark.parametrize("bits", [0, 63])
    def test_invalid_bits(self, bits, rng):
        with pytest.raises(ValueError):
            DensifiedWTA(8, bits, rng=rng)

    @pytest.mark.parametrize("bin_size", [1, 3, 6])
    def test_invalid_bin_size(self, bin_size, rng):
        with pytest.raises(ValueError):
            DensifiedWTA(8, 4, bin_size=bin_size, rng=rng)

    def test_invalid_dim(self, rng):
        with pytest.raises(ValueError):
            DensifiedWTA(0, 4, rng=rng)

    def test_small_dim_still_works(self, rng):
        """Bins larger than dim are filled by repeating the permutation."""
        fn = DensifiedWTA(3, 6, bin_size=8, rng=rng)
        codes = fn.hash(rng.normal(size=(10, 3)))
        assert ((codes >= 0) & (codes < 64)).all()


class TestHashing:
    def test_codes_in_range(self, rng):
        fn = DensifiedWTA(32, 8, rng=rng)
        codes = fn.hash(rng.normal(size=(100, 32)))
        assert ((codes >= 0) & (codes < 256)).all()

    def test_deterministic(self, rng):
        fn = DensifiedWTA(16, 6, rng=np.random.default_rng(0))
        x = rng.normal(size=(20, 16))
        np.testing.assert_array_equal(fn.hash(x), fn.hash(x))

    def test_scale_invariance(self, rng):
        """WTA sees only the argmax: positive scaling can't change codes."""
        fn = DensifiedWTA(16, 6, rng=rng)
        x = rng.normal(size=(30, 16))
        np.testing.assert_array_equal(fn.hash(x), fn.hash(3.0 * x))

    def test_monotone_transform_invariance(self, rng):
        """Any strictly increasing map preserves per-bin argmaxes."""
        fn = DensifiedWTA(16, 6, rng=rng)
        x = rng.normal(size=(20, 16))
        np.testing.assert_array_equal(fn.hash(x), fn.hash(x**3))

    def test_identical_vectors_collide(self, rng):
        fn = DensifiedWTA(16, 8, rng=rng)
        v = rng.normal(size=16)
        assert fn.hash(v)[0] == fn.hash(v.copy())[0]

    def test_wrong_dim_rejected(self, rng):
        fn = DensifiedWTA(16, 6, rng=rng)
        with pytest.raises(ValueError):
            fn.hash(rng.normal(size=(2, 9)))

    def test_similar_vectors_collide_more(self, rng):
        """Collision rate for near-duplicates must exceed that of random
        pairs (the LSH property)."""
        base = rng.normal(size=(100, 24))
        near = base + rng.normal(scale=0.01, size=base.shape)
        far = rng.normal(size=(100, 24))
        hits_near = hits_far = 0
        for t in range(20):
            fn = DensifiedWTA(24, 6, rng=np.random.default_rng(t))
            a = fn.hash(base)
            hits_near += int((a == fn.hash(near)).sum())
            hits_far += int((a == fn.hash(far)).sum())
        assert hits_near > 2 * hits_far


class TestDensification:
    def test_sparse_vectors_hash_validly(self, rng):
        """Vectors with a single non-zero coordinate still hash (plain WTA
        would leave most bins empty)."""
        fn = DensifiedWTA(32, 8, rng=rng)
        sparse = np.zeros((32, 32))
        np.fill_diagonal(sparse, 1.0)
        codes = fn.hash(sparse)
        assert ((codes >= 0) & (codes < 256)).all()

    def test_all_zero_vector_degenerates_gracefully(self, rng):
        fn = DensifiedWTA(16, 6, rng=rng)
        assert 0 <= fn.hash(np.zeros(16))[0] < 64

    def test_sparse_similarity_preserved(self, rng):
        """Two sparse vectors sharing their support should collide more
        than disjoint-support ones."""
        dim = 48
        hits_same = hits_disjoint = 0
        for t in range(30):
            fn = DensifiedWTA(dim, 6, rng=np.random.default_rng(t))
            v = np.zeros(dim)
            v[:6] = np.abs(np.random.default_rng(t + 1).normal(size=6))
            same = v.copy()
            same[:6] *= 1.01
            disjoint = np.zeros(dim)
            disjoint[6:12] = v[:6]
            code, code_same, code_disjoint = fn.hash(np.stack([v, same, disjoint]))
            hits_same += code == code_same
            hits_disjoint += code == code_disjoint
        assert hits_same > hits_disjoint


class TestFamilyIntegration:
    def test_factory(self):
        assert set(HASH_FAMILIES) == {"srp", "dwta"}
        index = LSHIndex(8, n_bits=4, n_tables=2, family="dwta", seed=0)
        assert all(isinstance(fn, DensifiedWTA) for fn in index.fns)
        with pytest.raises(ValueError, match="unknown hash family"):
            LSHIndex(8, n_bits=4, family="minhash")

    def test_lsh_index_with_dwta(self, rng):
        vectors = rng.normal(size=(40, 16))
        index = LSHIndex(16, n_bits=6, n_tables=4, family="dwta", seed=0)
        index.build(vectors)
        for i in range(40):
            assert i in index.query(vectors[i])

    def test_alsh_trainer_with_dwta(self, rng):
        from repro.core.alsh_approx import ALSHApproxTrainer
        from repro.nn.network import MLP

        net = MLP([12, 20, 3], seed=0)
        trainer = ALSHApproxTrainer(net, hash_family="dwta", seed=1)
        loss = trainer.train_batch(rng.normal(size=(3, 12)), np.array([0, 1, 2]))
        assert np.isfinite(loss)


class TestFusedDWTA:
    def test_matches_per_function_hash_dense(self, rng):
        from repro.lsh.dwta import FusedDWTA

        fns = [DensifiedWTA(20, 6, rng=rng) for _ in range(4)]
        fused = FusedDWTA(fns)
        vectors = rng.normal(size=(25, 20))
        codes = fused.hash_all(vectors)
        for t, fn in enumerate(fns):
            np.testing.assert_array_equal(codes[:, t], fn.hash(vectors))

    def test_matches_per_function_hash_sparse(self, rng):
        """Sparse rows hit empty bins: fused must reproduce the reference
        densification exactly."""
        from repro.lsh.dwta import FusedDWTA

        fns = [DensifiedWTA(20, 6, rng=rng) for _ in range(3)]
        fused = FusedDWTA(fns)
        vectors = rng.normal(size=(30, 20))
        vectors[rng.random(vectors.shape) < 0.8] = 0.0
        vectors[0] = 0.0  # the all-zero degenerate case
        codes = fused.hash_all(vectors)
        for t, fn in enumerate(fns):
            np.testing.assert_array_equal(codes[:, t], fn.hash(vectors))

    def test_mismatched_functions_rejected(self, rng):
        from repro.lsh.dwta import FusedDWTA

        fns = [DensifiedWTA(20, 6, rng=rng), DensifiedWTA(20, 4, rng=rng)]
        with pytest.raises(ValueError):
            FusedDWTA(fns)
