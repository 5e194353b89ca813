"""Tests for the per-method access-trace models and memory estimates."""

import numpy as np
import pytest

from repro.memsim.profile import (
    OPTIMIZER_SLOTS,
    ArrayRegion,
    MethodTraceModel,
    estimate_training_memory,
    profile_methods,
)
from repro.nn.optim import OPTIMIZERS

ARCH = [128, 96, 96, 10]


class TestArrayRegion:
    def test_row_extent(self):
        r = ArrayRegion(base=1000, rows=4, cols=8, itemsize=8)
        assert r.row_extent(0) == (1000, 64)
        assert r.row_extent(2) == (1000 + 2 * 64, 64)

    def test_column_extents_strided(self):
        r = ArrayRegion(base=0, rows=3, cols=4, itemsize=8)
        extents = list(r.column_extents(1))
        assert extents == [(8, 8), (40, 8), (72, 8)]

    def test_element(self):
        r = ArrayRegion(base=0, rows=3, cols=4, itemsize=8)
        assert r.element(1, 2) == (48, 8)

    def test_nbytes(self):
        assert ArrayRegion(0, 3, 4).nbytes == 96

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            ArrayRegion(0, 0, 4)


class TestTraceModel:
    def test_all_methods_produce_traces(self):
        model = MethodTraceModel(ARCH, batch=2, seed=0)
        for method in ("standard", "dropout", "adaptive_dropout", "mc", "alsh"):
            trace = list(model.step_trace(method))
            assert len(trace) > 0
            for addr, nbytes in trace:
                assert addr >= 0
                assert nbytes > 0

    def test_unknown_method(self):
        model = MethodTraceModel(ARCH, seed=0)
        with pytest.raises(ValueError, match="unknown method"):
            list(model.step_trace("quantum"))

    def test_sliced_dropout_touches_fewer_bytes_than_standard(self):
        """Column-sliced dropout reduces *bytes touched* even though its
        locality is worse (the §9.4 tension)."""
        model = MethodTraceModel(ARCH, batch=1, active_frac=0.05, seed=0)

        def total_bytes(method):
            return sum(n for _, n in model.step_trace(method))

        assert total_bytes("dropout_sliced") < total_bytes("standard")

    def test_mask_dropout_touches_more_bytes_than_standard(self):
        """The paper's mask-based dropout adds mask traffic on top of the
        full products (§9.2)."""
        model = MethodTraceModel(ARCH, batch=1, seed=0)

        def total_bytes(method):
            return sum(n for _, n in model.step_trace(method))

        assert total_bytes("dropout") > total_bytes("standard")

    def test_adaptive_touches_more_than_standard(self):
        """Standout adds mask traffic on top of full products (§9.2)."""
        model = MethodTraceModel(ARCH, batch=1, seed=0)

        def total_bytes(method):
            return sum(n for _, n in model.step_trace(method))

        assert total_bytes("adaptive_dropout") > total_bytes("standard")

    def test_invalid_arch(self):
        with pytest.raises(ValueError):
            MethodTraceModel([10], seed=0)


class TestProfiling:
    # Working set (W = 90 KB at itemsize 1) straddles the scaled L1 (12 KB)
    # the same way the paper's 8 MB matrices straddle the i9's caches.
    PROFILE_ARCH = [256, 300, 300, 300, 10]

    @pytest.fixture(scope="class")
    def report(self):
        return profile_methods(
            self.PROFILE_ARCH, batch=1, steps=2, hierarchy_scale=1 / 32, seed=0
        )

    def test_all_methods_reported(self, report):
        assert set(report) == {"standard", "dropout", "adaptive_dropout", "mc", "alsh"}

    def test_report_structure(self, report):
        for method, levels in report.items():
            assert {"L1", "L2", "L3", "dram_accesses"} <= set(levels)
            for lvl in ("L1", "L2", "L3"):
                assert levels[lvl]["hits"] >= 0
                assert 0.0 <= levels[lvl]["miss_rate"] <= 1.0

    def test_paper_ordering_dropout_family_misses_more_than_mc(self, report):
        """§9.4: Dropout (+24 %) and Adaptive-Dropout (+27 %) suffer more
        cache misses than MC-approx — reproduced as an ordering."""
        mc = report["mc"]["L1"]["misses"]
        assert report["dropout"]["L1"]["misses"] > 1.1 * mc
        assert report["adaptive_dropout"]["L1"]["misses"] >= report["dropout"]["L1"]["misses"]

    def test_alsh_misses_most(self, report):
        """Scattered column gathers + hash probes give ALSH-approx the worst
        cache behaviour (§9.4: "data that is not cache resident")."""
        others = [
            report[m]["L1"]["misses"]
            for m in ("standard", "dropout", "adaptive_dropout", "mc")
        ]
        assert report["alsh"]["L1"]["misses"] > max(others)

    def test_mc_beats_standard(self, report):
        """MC-approx's sampled row band reads less of W than STANDARD's
        full delta-propagation stream."""
        assert report["mc"]["L1"]["misses"] < report["standard"]["L1"]["misses"]


class TestMemoryEstimates:
    def test_common_components(self):
        breakdown = estimate_training_memory("standard", ARCH, batch=20)
        assert breakdown["weights"] > 0
        assert breakdown["activations"] > 0
        assert breakdown["total"] == sum(
            v for k, v in breakdown.items() if k != "total"
        )

    def test_alsh_has_table_overhead(self):
        alsh = estimate_training_memory("alsh", ARCH, optimizer="adam")
        std = estimate_training_memory("standard", ARCH, optimizer="adam")
        assert alsh["hash_tables"] > 0
        assert alsh["total"] > std["total"]

    def test_dropout_masks_small(self):
        drop = estimate_training_memory("dropout", ARCH, batch=1)
        assert 0 < drop["masks"] < drop["weights"]

    def test_adaptive_has_keep_probs(self):
        adaptive = estimate_training_memory("adaptive_dropout", ARCH, batch=1)
        assert adaptive["keep_probs"] == adaptive["masks"]

    def test_mc_sampling_buffers(self):
        mc = estimate_training_memory("mc", ARCH, batch=20)
        assert mc["sampling_buffers"] > 0

    def test_adam_state_double_sgd(self):
        sgd = estimate_training_memory("standard", ARCH, optimizer="sgd")
        adam = estimate_training_memory("standard", ARCH, optimizer="adam")
        assert sgd["optimizer_state"] == 0
        assert adam["optimizer_state"] == 2 * adam["weights"]

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            estimate_training_memory("quantum", ARCH)

    def test_unknown_optimizer(self):
        with pytest.raises(ValueError):
            estimate_training_memory("standard", ARCH, optimizer="lion")

    def test_optimizers_are_the_registry_rules(self):
        """The memory table names exactly the rules a trainer can run."""
        assert set(OPTIMIZER_SLOTS) == set(OPTIMIZERS)
        for name in OPTIMIZERS:
            estimate_training_memory("standard", ARCH, optimizer=name)
        for name in ("momentum", "adagrad"):
            with pytest.raises(ValueError, match="unknown optimizer"):
                estimate_training_memory("standard", ARCH, optimizer=name)
