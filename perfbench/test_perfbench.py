"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro.core.mc_approx as mc_module
from repro.backend import get_backend
from repro.obs import InMemoryRecorder

from perfbench import serve, train
from perfbench.layers import Tally, install_lsh, install_optimizer
from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS, result_metrics
from perfbench.outcome import Outcome, weights_digest
from perfbench.spans import (
    SpanClock,
    StepLog,
    TimingBackend,
    abba,
    patched,
    trace_steps,
    wrap_attr,
)
from perfbench.stats import MIN_BEYOND, percentile, require_percentile, spread

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q, enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, enough):
    assert percentile(list(range(enough - 1)), q) is None
    assert percentile(list(range(enough)), q) is not None
    with pytest.raises(ValueError):
        require_percentile(list(range(enough - 1)), q, "short")


def test_percentile_interpolates_like_numpy():
    values = list(np.random.default_rng(0).normal(size=500))
    assert percentile(values, 90) == pytest.approx(np.percentile(values, 90))
    assert MIN_BEYOND == 10


def test_spread_is_iqr_over_median():
    assert spread([1.0] * 10) == 0.0
    assert spread(list(range(1, 11))) == pytest.approx((8.25 - 2.75) / 5.5)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class FakeClock:
    """A nanosecond clock that advances by a fixed step per read."""

    def __init__(self, step=7):
        self.now = 0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class Layers:
    def outer(self):
        self.inner()
        self.inner()
        return "outer"

    def inner(self):
        self.leaf()

    def leaf(self):
        return None


def test_self_time_never_negative_and_step_shares_sum_to_one():
    clock = SpanClock(clock=FakeClock())
    obj = Layers()
    wrap_attr(obj, "leaf", clock, "backend.leaf")
    wrap_attr(obj, "inner", clock, "lsh.inner")
    log = StepLog()
    trace_steps(obj, "outer", log, clock, "core.outer")
    for _ in range(5):
        assert obj.outer() == "outer"
    assert all(entry[2] >= 0 for entry in clock.totals.values())
    for shares in log.shares:
        assert all(share >= 0 for share in shares.values())
        assert sum(shares.values()) == pytest.approx(1.0)
    assert clock.calls("backend.leaf") == 10
    total = clock.totals["core.outer"][1]
    assert sum(clock.layer_self.values()) == total


def test_cycles_skip_marked_gaps():
    log = StepLog()
    log.start_ns.extend([0, 10, 20])
    log.mark()  # a gap (another run's chunk) before the fourth step
    log.start_ns.extend([1000, 1010])
    assert log.cycles_ms() == [10 / 1e6, 10 / 1e6, 10 / 1e6]


def test_abba_order():
    assert abba(4) == [False, False, True, True, True, True, False, False]
    with pytest.raises(ValueError):
        abba(3)


# ----------------------------------------------------------------------
# wrappers change nothing
# ----------------------------------------------------------------------
TINY = {"standard": "standard^S", "dropout": "dropout^S",
        "adaptive_dropout": "adaptive_dropout^S", "mc": "mc^M",
        "alsh": "alsh", "topk": "alsh"}


@pytest.fixture(scope="module")
def tiny_data():
    return train.load_data(0)


@pytest.mark.parametrize("method", sorted(TINY))
def test_wrapped_training_is_bitwise_identical(method, tiny_data, monkeypatch):
    monkeypatch.setattr(train, "HIDDEN", (48, 48, 48))
    setting = train.paper_settings()[TINY[method]]
    batch = 4
    plain = train.MethodRun(method, setting, tiny_data, batch, seed=3)
    plain.fit_chunk(10)

    clock = SpanClock()
    recorder = InMemoryRecorder()
    traced = train.MethodRun(
        method, setting, tiny_data, batch, seed=3, recorder=recorder,
        compute_backend=TimingBackend(get_backend("reference"), clock),
    )
    log = StepLog()
    tally = Tally()
    trace_steps(traced.trainer, "train_batch", log, clock, "core.train_batch")
    install_optimizer(traced.trainer, clock)
    for index in getattr(traced.trainer, "indexes", ()):
        install_lsh(index, clock, tally)
    with patched(mc_module, train.SAMPLERS, clock, "approx"):
        traced.fit_chunk(10)
    assert mc_module.bernoulli_sample.__name__ == "bernoulli_sample"
    assert weights_digest(plain.trainer.net) == weights_digest(traced.trainer.net)
    assert len(log.results) == 10
    assert clock.calls("optim.dense") + clock.calls("optim.lazy") > 0
    assert clock.self_s("backend") > 0
    if method == "mc":
        assert clock.calls("approx.bernoulli_sample") > 0


def test_count_metrics_repeat_across_traced_runs(monkeypatch):
    monkeypatch.setattr(train, "HIDDEN", (32, 32, 32))
    counts = ("flops.", "mem.", "lsh.active_frac", "approx.rows_kept_frac",
              "optim.lazy.cols_per_call", "lsh.rehashed_items_per_batch",
              "lsh.candidates_per_query")
    runs = []
    for _ in range(2):
        out = Outcome()
        train.run_traced("train-stochastic", 5, out)
        assert out.correct, out.failures
        runs.append({k: v for k, v in out.values.items() if k.startswith(counts)})
    assert runs[0] == runs[1]
    assert runs[0]["lsh.active_frac"] > 0


# ----------------------------------------------------------------------
# serve schedule
# ----------------------------------------------------------------------
def test_open_loop_schedule_repeats_exactly():
    a = serve.poisson_schedule(7, 1000.0, 500)
    b = serve.poisson_schedule(7, 1000.0, 500)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, serve.poisson_schedule(8, 1000.0, 500))
    assert np.all(np.diff(a) > 0)
    assert 0.4 < a[-1] < 0.6  # 500 arrivals at 1000/s


# ----------------------------------------------------------------------
# the catalogue and BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_matches_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WORKLOADS[w["name"]] for w in doc["workloads"])
    assert [tuple(m.values()) for m in doc["end_to_end"]] == [
        tuple(row) for row in END_TO_END
    ]
    assert [tuple(m.values()) for m in doc["per_layer"]] == [
        tuple(row) for row in PER_LAYER
    ]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert len(doc["per_layer"]) <= 128


def test_result_metrics_fill_unmeasured_layers_with_zero():
    end_to_end = {name: 1.5 for name, *_ in END_TO_END}
    assert list(result_metrics(end_to_end, trace=False)) == list(end_to_end)
    with pytest.raises(KeyError):
        result_metrics({"setup_s": 1.0}, trace=False)
    layered = result_metrics({"accuracy": 0.5}, trace=True)
    assert len(layered) == len(PER_LAYER)
    assert layered["accuracy"]["value"] == 0.5
    assert layered["lsh.share"]["value"] == 0.0
    with pytest.raises(KeyError):
        result_metrics({"nonsense": 1.0}, trace=True)


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
def test_calibration_speed_and_normalisation(capsys):
    from perfbench.calibrate import Calibrator, normalize

    cal = Calibrator()
    with pytest.raises(ValueError):
        cal.speed()
    cal.run_slice(3)
    assert cal.slices == 3
    speed = cal.speed()
    assert speed > 0
    setup_cal = Calibrator()
    setup_cal.slices_before_build()
    out = Outcome()
    normalize(out, setup_cal, cal, 2.0, 100.0, 5.0)
    assert out.values["setup_s"] == pytest.approx(2.0 * setup_cal.speed())
    assert out.values["samples_per_s"] == pytest.approx(100.0 / speed)
    assert out.values["latency_ms.p50"] == pytest.approx(5.0 * speed)
    assert "machine speed" in capsys.readouterr().out
