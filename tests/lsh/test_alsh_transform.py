"""Tests for the Shrivastava–Li asymmetric transform (paper Eq. 2–3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsh.alsh import AsymmetricTransform


class TestConstruction:
    @pytest.mark.parametrize("m", [0, -1])
    def test_invalid_m(self, m):
        with pytest.raises(ValueError):
            AsymmetricTransform(m=m)

    @pytest.mark.parametrize("scale", [0.0, 1.0, 1.5])
    def test_invalid_scale(self, scale):
        with pytest.raises(ValueError):
            AsymmetricTransform(scale=scale)

    def test_output_dim(self):
        assert AsymmetricTransform(m=3).output_dim(10) == 13


class TestDataTransform:
    def test_shapes(self, rng):
        t = AsymmetricTransform(m=3)
        data = rng.normal(size=(20, 8))
        p, s = t.transform_data(data)
        assert p.shape == (20, 11)
        assert s > 0

    def test_max_scaled_norm_equals_target(self, rng):
        t = AsymmetricTransform(m=3, scale=0.83)
        data = rng.normal(size=(20, 8))
        _, s = t.transform_data(data)
        assert np.linalg.norm(data * s, axis=1).max() == pytest.approx(0.83)

    def test_padding_is_norm_powers(self, rng):
        t = AsymmetricTransform(m=3, scale=0.5)
        data = rng.normal(size=(5, 4))
        p, s = t.transform_data(data)
        norms_sq = np.linalg.norm(data * s, axis=1) ** 2
        np.testing.assert_allclose(p[:, 4], norms_sq)
        np.testing.assert_allclose(p[:, 5], norms_sq**2)
        np.testing.assert_allclose(p[:, 6], norms_sq**4)

    def test_zero_data_scale_one(self):
        t = AsymmetricTransform()
        p, s = t.transform_data(np.zeros((3, 4)))
        assert s == 1.0
        np.testing.assert_array_equal(p[:, :4], 0.0)


class TestQueryTransform:
    def test_normalised_and_padded(self, rng):
        t = AsymmetricTransform(m=3)
        q = t.transform_query(rng.normal(size=(7, 5)) * 10)
        np.testing.assert_allclose(np.linalg.norm(q[:, :5], axis=1), 1.0)
        np.testing.assert_array_equal(q[:, 5:], 0.5)

    def test_zero_query_not_nan(self):
        t = AsymmetricTransform(m=2)
        q = t.transform_query(np.zeros((1, 4)))
        assert np.isfinite(q).all()

    @staticmethod
    def divide_and_stack(t, queries):
        """The ``np.where`` / ``np.hstack`` Q the preallocated one replaced."""
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        norms = np.linalg.norm(queries, axis=1, keepdims=True)
        safe = np.where(norms > 0.0, norms, 1.0)
        pad = np.full((queries.shape[0], t.m), 0.5)
        return np.hstack([queries / safe, pad])

    def test_byte_identical_on_degenerate_rows(self, rng):
        """Zero, NaN and ±inf rows keep the old values (a NaN-norm row
        stays unnormalised, as ``np.where(norms > 0, norms, 1)`` left it),
        as do ordinary rows and a zero-row batch."""
        t = AsymmetricTransform(m=3)
        q = rng.normal(size=(9, 6)) * 10
        q[1] = 0.0
        q[2, 3] = np.nan
        q[3, 0] = np.inf
        q[4, 5] = -np.inf
        q[5, :2] = [np.inf, -np.inf]
        q[6] = np.nan
        with np.errstate(invalid="ignore"):
            for sample in (q, q[:0], q[0]):
                got, want = t.transform_query(sample), self.divide_and_stack(t, sample)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_one_dim_helper(self, rng):
        t = AsymmetricTransform(m=2)
        v = rng.normal(size=6)
        np.testing.assert_array_equal(
            t.transform_query_one(v), t.transform_query(v.reshape(1, -1))[0]
        )


class TestEquationThree:
    def test_distance_identity(self, rng):
        """‖Q(a) − P(w)‖² = 1 + m/4 − 2s·⟨a, w⟩ + ‖s·w‖^{2^{m+1}}
        for unit queries a and scaled data s·w (Eq. 3's expansion)."""
        t = AsymmetricTransform(m=3, scale=0.8)
        data = rng.normal(size=(10, 6))
        p, s = t.transform_data(data)
        a = rng.normal(size=6)
        a /= np.linalg.norm(a)
        q = t.transform_query_one(a)
        for i in range(10):
            w = data[i] * s
            lhs = np.linalg.norm(q - p[i]) ** 2
            rhs = 1 + t.m / 4 - 2 * (a @ w) + np.linalg.norm(w) ** (2 ** (t.m + 1))
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_argmin_distance_is_argmax_inner_product(self, rng):
        """The headline reduction: NNS in transformed space solves MIPS."""
        t = AsymmetricTransform(m=3, scale=0.83)
        data = rng.normal(size=(50, 10))
        p, s = t.transform_data(data)
        hits = 0
        for trial in range(20):
            a = rng.normal(size=10)
            a /= np.linalg.norm(a)
            q = t.transform_query_one(a)
            true_best = int(np.argmax(data @ a))
            transformed_best = int(np.argmin(np.linalg.norm(p - q, axis=1)))
            hits += true_best == transformed_best
        # The residual ‖w‖^{2^{m+1}} term is ≤ 0.83^16 ≈ 0.05, so the argmax
        # should almost always be preserved.
        assert hits >= 18

    def test_residual_decays_with_m(self, rng):
        w = rng.normal(size=5)
        w = 0.8 * w / np.linalg.norm(w)
        residuals = [
            AsymmetricTransform(m=m).distance_identity_residual(w) for m in (1, 2, 3, 4)
        ]
        assert residuals == sorted(residuals, reverse=True)
        assert residuals[-1] < 1e-3

    @settings(max_examples=25)
    @given(st.integers(0, 10**6))
    def test_transform_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(4, 5))
        t = AsymmetricTransform(m=2)
        p1, s1 = t.transform_data(data)
        p2, s2 = t.transform_data(data)
        assert s1 == s2
        np.testing.assert_array_equal(p1, p2)
