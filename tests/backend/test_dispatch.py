"""Backend dispatch: the shared reference instance and scoping."""

import threading

import pytest

from repro.backend import (
    ComputeBackend,
    active_backend,
    default_backend_name,
    get_backend,
    use_backend,
)


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
