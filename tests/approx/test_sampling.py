"""Tests for repro.approx.sampling — scores, normalisation, waterfilling."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.approx.sampling import (
    clipped_probabilities,
    importance_scores,
    normalize_probabilities,
    sample_with_replacement,
)
from repro.nn.optim import BLOCK_BYTES


class TestImportanceScores:
    def test_values(self):
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.array([[3.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(importance_scores(a, b), [3.0, 8.0])

    def test_nonnegative(self, rng):
        a = rng.normal(size=(4, 6))
        b = rng.normal(size=(6, 3))
        assert (importance_scores(a, b) >= 0).all()

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            importance_scores(rng.normal(size=(2, 3)), rng.normal(size=(4, 2)))


def _norm_scores(a, b):
    """The scores as ``np.linalg.norm`` computes them, whole."""
    return np.linalg.norm(a, axis=0) * np.linalg.norm(b, axis=1)


def _assert_bytes_equal(a, b):
    expected = _norm_scores(a, b)
    got = importance_scores(a, b)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _lines_per_block(x, axis):
    """Lines of ``x`` (along the axis not reduced) in one scores block."""
    return BLOCK_BYTES // (x.shape[axis] * x.itemsize)


class TestImportanceScoresBlocks:
    """The blocked scores are the sums ``np.linalg.norm`` computes, byte
    for byte, at every layout and block boundary a training step meets."""

    @pytest.mark.parametrize("w_order", ["F", "C"])
    @pytest.mark.parametrize("delta_order", ["C", "F"])
    @pytest.mark.parametrize("rows", [1, 20])
    @pytest.mark.parametrize("n_in", [784, 1000])
    def test_delta_propagation_operands(self, n_in, rows, delta_order, w_order):
        """MC-approx scores ``(δ, W.T)``; trainers keep ``W`` column-major."""
        rng = np.random.default_rng(n_in + rows)
        delta = np.asarray(rng.normal(size=(rows, 1000)), order=delta_order)
        w = np.asarray(rng.normal(size=(n_in, 1000)), order=w_order)
        assert 1000 % _lines_per_block(w.T, 1)  # the last block is narrower
        _assert_bytes_equal(delta, w.T)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rows", [1, 20])
    def test_weight_gradient_operands(self, rows, order):
        """MC-approx scores ``(a.T, δ)`` over the batch."""
        rng = np.random.default_rng(rows)
        a_prev = np.asarray(rng.normal(size=(rows, 784)), order=order)
        delta = np.asarray(rng.normal(size=(rows, 1000)), order=order)
        _assert_bytes_equal(a_prev.T, delta)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_last_block_of_one_line(self, order):
        """33 lines of 1024 elements: blocks of 32 and one line left over,
        in either layout, along either operand's axis."""
        rng = np.random.default_rng(33)
        b = np.asarray(rng.normal(size=(33, 1024)), order=order)
        a = np.asarray(rng.normal(size=(5, 33)), order=order)
        assert b.shape[0] % _lines_per_block(b, 1) == 1
        _assert_bytes_equal(a, b)
        _assert_bytes_equal(b.T, a.T)

    def test_zero_and_subnormal_columns(self):
        rng = np.random.default_rng(4)
        w = np.asfortranarray(rng.normal(size=(1000, 1000)))
        w[:, 3] = 0.0
        w[:, 40] = 5e-324  # squares underflow to zero
        w[:, 41] = 1e-160  # squares are subnormal
        w[::2, 999] = 1e-310
        delta = rng.normal(size=(20, 1000))
        delta[:, 7] = 0.0
        delta[:, 8] = 1e-170
        scores = importance_scores(delta, w.T)
        assert scores[3] == scores[7] == scores[40] == scores[8] == 0.0
        assert 0.0 < scores[41]
        _assert_bytes_equal(delta, w.T)

    def test_paper_width_scores_stay_below_one_mib(self):
        """Scoring ``(δ, W.T)`` of a 1000×1000 layer never copies ``W``."""
        rng = np.random.default_rng(5)
        delta = rng.normal(size=(20, 1000))
        w = np.asfortranarray(rng.normal(size=(1000, 1000)))
        tracemalloc.start()
        try:
            importance_scores(delta, w.T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestNormalize:
    def test_sums_to_one(self, rng):
        p = normalize_probabilities(rng.uniform(size=10))
        assert p.sum() == pytest.approx(1.0)

    def test_zero_scores_uniform(self):
        p = normalize_probabilities(np.zeros(4))
        np.testing.assert_allclose(p, 0.25)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            normalize_probabilities(np.array([1.0, -1.0]))


class TestClippedProbabilities:
    def test_budget_constraint_exact(self, rng):
        scores = rng.uniform(size=20)
        for k in (1, 5, 10, 19, 20):
            p = clipped_probabilities(scores, k)
            assert p.sum() == pytest.approx(k, rel=1e-9)

    def test_all_in_unit_interval(self, rng):
        p = clipped_probabilities(rng.uniform(size=15) ** 4, 7)
        assert ((p >= 0) & (p <= 1 + 1e-12)).all()

    def test_waterfilling_clips_dominant_scores(self):
        """A hugely dominant score is pinned at 1, not above."""
        scores = np.array([1000.0, 1.0, 1.0, 1.0])
        p = clipped_probabilities(scores, 2)
        assert p[0] == pytest.approx(1.0)
        # Remaining budget of 1 spreads proportionally over the equal tail.
        np.testing.assert_allclose(p[1:], 1.0 / 3, rtol=1e-9)
        assert p.sum() == pytest.approx(2.0)

    def test_k_equals_n_all_ones(self, rng):
        scores = rng.uniform(0.1, 1.0, size=8)
        np.testing.assert_allclose(clipped_probabilities(scores, 8), 1.0)

    def test_monotone_in_scores(self, rng):
        scores = np.sort(rng.uniform(size=12))
        p = clipped_probabilities(scores, 4)
        assert (np.diff(p) >= -1e-12).all()

    def test_zero_scores_uniform(self):
        p = clipped_probabilities(np.zeros(10), 3)
        np.testing.assert_allclose(p, 0.3)

    def test_zero_score_entries_get_zero(self):
        scores = np.array([0.0, 1.0, 1.0, 0.0])
        p = clipped_probabilities(scores, 1)
        assert p[0] == 0.0
        assert p[3] == 0.0

    @pytest.mark.parametrize("k", [0, 21])
    def test_invalid_k(self, k, rng):
        with pytest.raises(ValueError):
            clipped_probabilities(rng.uniform(size=20), k)

    @settings(max_examples=60)
    @given(
        arrays(np.float64, st.integers(2, 30), elements=st.floats(0, 100)),
        st.data(),
    )
    def test_property_budget_and_bounds(self, scores, data):
        k = data.draw(st.integers(1, scores.size))
        p = clipped_probabilities(scores, k)
        assert ((p >= -1e-12) & (p <= 1 + 1e-9)).all()
        assert p.sum() == pytest.approx(k, rel=1e-6, abs=1e-6)


class TestSampleWithReplacement:
    def test_count_and_probs(self, rng):
        probs = normalize_probabilities(np.arange(1.0, 6.0))
        idx, p_sel = sample_with_replacement(probs, 100, rng)
        assert idx.shape == (100,)
        np.testing.assert_allclose(p_sel, probs[idx])

    def test_zero_probability_never_sampled(self, rng):
        probs = np.array([0.0, 1.0])
        idx, _ = sample_with_replacement(probs, 50, rng)
        assert (idx == 1).all()

    def test_invalid_count(self, rng):
        with pytest.raises(ValueError):
            sample_with_replacement(np.array([1.0]), 0, rng)

    def test_empirical_frequencies(self):
        rng = np.random.default_rng(0)
        probs = np.array([0.7, 0.2, 0.1])
        idx, _ = sample_with_replacement(probs, 20_000, rng)
        freq = np.bincount(idx, minlength=3) / 20_000
        np.testing.assert_allclose(freq, probs, atol=0.02)


class TestNonFiniteGuards:
    def test_clipped_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            clipped_probabilities(np.array([1.0, np.nan, 2.0]), 2)

    def test_clipped_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            clipped_probabilities(np.array([1.0, np.inf]), 1)

    def test_normalize_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            normalize_probabilities(np.array([np.nan, 1.0]))

    def test_subnormal_scores_respect_budget(self):
        """Regression: subnormal scores once overflowed λ and mis-clipped
        every entry, breaking Σp = k."""
        tiny = np.full(2, 2.22507386e-309)
        p = clipped_probabilities(tiny, 1)
        np.testing.assert_allclose(p, 0.5)
        assert p.sum() == pytest.approx(1.0)

    def test_mixed_subnormal_tail_respects_budget(self):
        """Regression: a subnormal tail after clipping the head once
        overflowed λ on the second waterfilling pass."""
        scores = np.array([1.0, 2.22507386e-309, 2.22507386e-309])
        p = clipped_probabilities(scores, 2)
        assert p[0] == pytest.approx(1.0)
        np.testing.assert_allclose(p[1:], 0.5)
        assert p.sum() == pytest.approx(2.0)
