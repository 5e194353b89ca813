"""Tests for the §7 theory: Lemma 7.1 recursion and Theorem 7.2 closed form."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.theory.error_propagation import (
    LinearErrorModel,
    depth_at_error_ratio,
    error_ratio,
    error_ratio_table,
)


class TestClosedForm:
    def test_paper_table_values(self):
        """Reproduce the §7 table exactly: c=5, k=1..6 →
        0.2, 0.44, 0.72, 1.07, 1.48, 1.98."""
        table = error_ratio_table(c=5.0, max_k=6)
        np.testing.assert_allclose(
            np.round(table, 2), [0.2, 0.44, 0.73, 1.07, 1.49, 1.99], atol=0.011
        )

    def test_zero_depth_zero_error(self):
        assert error_ratio(5.0, 0) == 0.0

    def test_monotone_in_depth(self):
        ratios = [error_ratio(5.0, k) for k in range(1, 10)]
        assert ratios == sorted(ratios)

    def test_exponential_growth(self):
        """Successive ratios of (1 + ε/â) must be constant = (c+1)/c."""
        c = 3.0
        for k in range(1, 8):
            growth = (1 + error_ratio(c, k + 1)) / (1 + error_ratio(c, k))
            assert growth == pytest.approx((c + 1) / c)

    def test_larger_c_smaller_error(self):
        """Better active-node coverage (larger c) shrinks the error."""
        assert error_ratio(10.0, 4) < error_ratio(5.0, 4) < error_ratio(2.0, 4)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            error_ratio(0.0, 3)
        with pytest.raises(ValueError):
            error_ratio(5.0, -1)


class TestDepthThreshold:
    def test_paper_claim_depth_4(self):
        """'As soon as the depth gets larger than 3, the estimation error
        dominates the estimation value' — threshold crossed at k = 4."""
        assert depth_at_error_ratio(5.0, threshold=1.0) == 4

    def test_threshold_consistency(self):
        c = 5.0
        k = depth_at_error_ratio(c, threshold=1.0)
        assert error_ratio(c, k) >= 1.0
        assert error_ratio(c, k - 1) < 1.0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            depth_at_error_ratio(5.0, threshold=0.0)

    @settings(max_examples=30)
    @given(st.floats(0.5, 20.0), st.floats(0.1, 5.0))
    def test_property_threshold_is_minimal(self, c, threshold):
        k = depth_at_error_ratio(c, threshold)
        assert error_ratio(c, k) >= threshold - 1e-9
        if k > 1:
            assert error_ratio(c, k - 1) < threshold + 1e-9


class TestLemmaRecursionSimulator:
    def test_full_active_set_no_error(self, rng):
        weights = [rng.normal(size=(6, 6)) for _ in range(4)]
        model = LinearErrorModel(weights, active_frac=1.0)
        _, _, errors = model.run(rng.normal(size=6))
        for err in errors:
            np.testing.assert_allclose(err, 0.0, atol=1e-10)

    def test_lemma_first_layer_error(self, rng):
        """Layer-1 error must equal the sum over inactive nodes of x_i W_i1
        (Lemma 7.1, k=1 branch)."""
        w = rng.normal(size=(8, 3))
        x = rng.normal(size=8)
        keep = 4

        def selector(layer, node, contrib):
            return np.argpartition(-np.abs(contrib), keep - 1)[:keep]

        model = LinearErrorModel([w], selector=selector)
        _, _, errors = model.run(x)
        for j in range(3):
            contrib = x * w[:, j]
            active = set(selector(0, j, contrib).tolist())
            inactive = [i for i in range(8) if i not in active]
            assert errors[0][j] == pytest.approx(contrib[inactive].sum(), abs=1e-10)

    def test_theorem_constant_c_construction(self):
        """On an all-ones network where exactly half the incoming mass is
        kept, c = 1 and the closed form a^k = â^k · 2^k must hold."""
        n = 8
        weights = [np.ones((n, n)) for _ in range(4)]
        x = np.ones(n)

        def selector(layer, node, contrib):
            return np.arange(n // 2)  # keep half: active sum == inactive sum

        model = LinearErrorModel(weights, selector=selector)
        exact, estimates, _ = model.run(x)
        for k in range(4):
            ratio = exact[k][0] / estimates[k][0]
            assert ratio == pytest.approx(2.0 ** (k + 1), rel=1e-9)

    def test_chained_shape_validation(self, rng):
        with pytest.raises(ValueError):
            LinearErrorModel([rng.normal(size=(4, 5)), rng.normal(size=(4, 5))])

    def test_input_dim_validation(self, rng):
        model = LinearErrorModel([rng.normal(size=(4, 3))])
        with pytest.raises(ValueError):
            model.run(rng.normal(size=7))

    def test_invalid_active_frac(self, rng):
        with pytest.raises(ValueError):
            LinearErrorModel([rng.normal(size=(4, 3))], active_frac=0.0)
