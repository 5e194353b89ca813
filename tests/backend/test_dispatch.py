"""Backend dispatch: the shared reference instance and scoping."""

import threading

import pytest

from repro.backend import (
    ReferenceBackend,
    active_backend,
    default_backend_name,
    get_backend,
    resolve_backend,
    use_backend,
)


def test_get_backend_returns_shared_instances():
    assert get_backend("reference") is get_backend("reference")
    assert isinstance(get_backend("reference"), ReferenceBackend)


def test_unknown_name_lists_available():
    with pytest.raises(ValueError, match="'fast'.*available: reference$"):
        get_backend("fast")


def test_default_is_reference():
    assert default_backend_name() == "reference"
    assert active_backend() is get_backend("reference")


def test_use_backend_nests_and_restores():
    outer, inner = ReferenceBackend(), ReferenceBackend()
    assert active_backend() is get_backend("reference")
    with use_backend(outer):
        assert active_backend() is outer
        with use_backend(inner):
            assert active_backend() is inner
        assert active_backend() is outer
    assert active_backend() is get_backend("reference")


def test_use_backend_accepts_instances_and_rejects_none():
    mine = ReferenceBackend()
    with use_backend(mine):
        assert active_backend() is mine
    with pytest.raises(ValueError):
        with use_backend(None):
            pass


def test_use_backend_is_thread_local():
    seen = {}

    def worker():
        seen["backend"] = active_backend()

    with use_backend(ReferenceBackend()):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    # The worker thread never saw the main thread's scope.
    assert seen["backend"] is get_backend("reference")


def test_resolve_backend_forms():
    assert resolve_backend(None) is None
    assert resolve_backend("reference") is get_backend("reference")
    mine = ReferenceBackend()
    assert resolve_backend(mine) is mine
