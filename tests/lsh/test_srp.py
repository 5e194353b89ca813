"""Unit and statistical tests for repro.lsh.srp."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsh.srp import (
    FusedSRP,
    SignedRandomProjection,
    collision_probability,
    pack_bits,
)


class TestConstruction:
    def test_bucket_count(self):
        srp = SignedRandomProjection(8, 6, np.random.default_rng(0))
        assert srp.n_buckets == 64

    @pytest.mark.parametrize("bits", [0, 63, -1])
    def test_invalid_bits(self, bits):
        with pytest.raises(ValueError):
            SignedRandomProjection(4, bits)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            SignedRandomProjection(0, 4)


class TestHashing:
    def test_codes_in_range(self, rng):
        srp = SignedRandomProjection(10, 5, rng)
        codes = srp.hash(rng.normal(size=(100, 10)))
        assert ((codes >= 0) & (codes < 32)).all()

    def test_deterministic(self, rng):
        srp = SignedRandomProjection(10, 5, np.random.default_rng(3))
        x = rng.normal(size=(20, 10))
        np.testing.assert_array_equal(srp.hash(x), srp.hash(x))

    def test_scale_invariance(self, rng):
        """SimHash only sees direction: positive scaling can't change codes."""
        srp = SignedRandomProjection(10, 6, rng)
        x = rng.normal(size=(30, 10))
        np.testing.assert_array_equal(srp.hash(x), srp.hash(7.5 * x))

    def test_identical_vectors_always_collide(self, rng):
        srp = SignedRandomProjection(10, 8, rng)
        v = rng.normal(size=10)
        assert srp.hash(v)[0] == srp.hash(v.copy())[0]

    def test_opposite_vectors_never_collide(self, rng):
        """Antipodal points differ in every bit (θ = π)."""
        srp = SignedRandomProjection(10, 4, rng)
        v = rng.normal(size=10)
        sig_a = srp.signatures(v.reshape(1, -1))
        sig_b = srp.signatures(-v.reshape(1, -1))
        assert (sig_a != sig_b).all()

    def test_wrong_dim_raises(self, rng):
        srp = SignedRandomProjection(10, 4, rng)
        with pytest.raises(ValueError):
            srp.hash(rng.normal(size=(5, 7)))


class TestPackBits:
    def test_matches_powers_of_two_dot(self, rng):
        """pack_bits is bits @ [1, 2, 4, ...] without the int64 copy."""
        bits = rng.random((40, 9)) < 0.5
        powers = 1 << np.arange(9, dtype=np.int64)
        np.testing.assert_array_equal(
            pack_bits(bits), bits.astype(np.int64) @ powers
        )

    def test_three_dimensional_input(self, rng):
        bits = rng.random((7, 3, 5)) < 0.5
        codes = pack_bits(bits)
        assert codes.shape == (7, 3)
        powers = 1 << np.arange(5, dtype=np.int64)
        np.testing.assert_array_equal(
            codes, bits.astype(np.int64) @ powers
        )


class TestFusedSRP:
    def test_matches_per_function_hash(self, rng):
        fns = [SignedRandomProjection(16, 6, rng) for _ in range(4)]
        fused = FusedSRP(fns)
        vectors = rng.normal(size=(30, 16))
        codes = fused.hash_all(vectors)
        assert codes.shape == (30, 4)
        for t, fn in enumerate(fns):
            np.testing.assert_array_equal(codes[:, t], fn.hash(vectors))

    def test_mismatched_functions_rejected(self, rng):
        fns = [
            SignedRandomProjection(16, 6, rng),
            SignedRandomProjection(16, 4, rng),
        ]
        with pytest.raises(ValueError):
            FusedSRP(fns)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            FusedSRP([])

    def test_wrong_dim_raises(self, rng):
        fused = FusedSRP([SignedRandomProjection(16, 6, rng)])
        with pytest.raises(ValueError):
            fused.hash_all(rng.normal(size=(5, 9)))


class TestCollisionProbability:
    def test_identical(self):
        v = np.array([1.0, 2.0])
        assert collision_probability(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert collision_probability([1, 0], [0, 1]) == pytest.approx(0.5)

    def test_antipodal(self):
        assert collision_probability([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(0.0)

    def test_k_bits_power(self):
        p1 = collision_probability([1, 0], [1, 1], n_bits=1)
        p4 = collision_probability([1, 0], [1, 1], n_bits=4)
        assert p4 == pytest.approx(p1**4)

    def test_zero_vector_is_half(self):
        assert collision_probability([0, 0], [1, 0]) == pytest.approx(0.5)

    def test_empirical_matches_analytic(self):
        """Monte-Carlo check of Pr[collision] = (1 − θ/π)^K."""
        rng = np.random.default_rng(0)
        u = np.array([1.0, 0.0, 0.0])
        v = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        n_trials = 3000
        hits = 0
        for i in range(n_trials):
            srp = SignedRandomProjection(3, 2, np.random.default_rng(i))
            code_u, code_v = srp.hash(np.stack([u, v]))
            hits += code_u == code_v
        empirical = hits / n_trials
        analytic = collision_probability(u, v, n_bits=2)
        assert empirical == pytest.approx(analytic, abs=0.03)

    @settings(max_examples=30)
    @given(st.integers(0, 10**6))
    def test_probability_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.normal(size=(2, 5))
        p = collision_probability(u, v, n_bits=3)
        assert 0.0 <= p <= 1.0

    @settings(max_examples=30)
    @given(st.integers(0, 10**6))
    def test_more_similar_more_likely(self, seed):
        """Moving v towards u cannot reduce the collision probability."""
        rng = np.random.default_rng(seed)
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        closer = 0.5 * (u / np.linalg.norm(u) + v / np.linalg.norm(v))
        if np.linalg.norm(closer) < 1e-9:
            return  # antipodal corner case
        assert collision_probability(u, closer) >= collision_probability(u, v) - 1e-12
