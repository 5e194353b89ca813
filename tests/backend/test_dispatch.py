"""Backend dispatch: the shared reference instance and scoping."""

import threading

import numpy as np
import pytest

from repro.backend import (
    ComputeBackend,
    active_backend,
    default_backend_name,
    get_backend,
    use_backend,
)
from repro.core import make_trainer
from repro.nn.network import MLP
from repro.obs import InMemoryRecorder


def test_get_backend_returns_shared_instances():
    assert get_backend("reference") is get_backend("reference")
    assert isinstance(get_backend("reference"), ComputeBackend)


def test_unknown_name_lists_available():
    with pytest.raises(ValueError, match="'fast'.*available: reference$"):
        get_backend("fast")


def test_default_is_reference():
    assert default_backend_name() == "reference"
    assert active_backend() is get_backend("reference")


def test_use_backend_nests_and_restores():
    outer, inner = ComputeBackend(), ComputeBackend()
    assert active_backend() is get_backend("reference")
    with use_backend(outer):
        assert active_backend() is outer
        with use_backend(inner):
            assert active_backend() is inner
        assert active_backend() is outer
    assert active_backend() is get_backend("reference")


def test_use_backend_accepts_instances_and_rejects_none():
    mine = ComputeBackend()
    with use_backend(mine):
        assert active_backend() is mine
    # A name, or anything else without the kernels, is refused on entry.
    for spec in (None, "reference"):
        with pytest.raises(TypeError, match="needs a compute backend object") as err:
            with use_backend(spec):
                pass
        assert "\n" not in str(err.value)
    assert active_backend() is get_backend("reference")


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("method", ["standard", "alsh"])
def test_trainers_refuse_a_non_backend_at_construction(method, traced):
    """The check ``use_backend`` runs, before the trainer is built or wrapped."""
    recorder = InMemoryRecorder() if traced else None
    net = MLP([4, 3, 2], seed=0)
    before = net.layers[0].W.copy()
    with pytest.raises(TypeError, match="needs a compute backend object") as err:
        make_trainer(method, net, compute_backend="reference", recorder=recorder)
    assert "\n" not in str(err.value)
    assert net.layers[0].W.flags.c_contiguous
    assert np.array_equal(net.layers[0].W, before)


def test_use_backend_is_thread_local():
    seen = {}

    def worker():
        seen["backend"] = active_backend()

    with use_backend(ComputeBackend()):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    # The worker thread never saw the main thread's scope.
    assert seen["backend"] is get_backend("reference")
