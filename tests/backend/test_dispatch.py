"""Backend selection: registry, env var, default override, scoping."""

import threading

import pytest

import repro.backend as backend_mod
from repro.backend import (
    ENV_VAR,
    ComputeBackend,
    FastBackend,
    ReferenceBackend,
    active_backend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
)


@pytest.fixture(autouse=True)
def _clean_default(monkeypatch):
    """Every test starts from the env-var-free, override-free default."""
    monkeypatch.delenv(ENV_VAR, raising=False)
    previous = set_default_backend(None)
    yield
    set_default_backend(previous)


def test_builtins_are_registered():
    assert available_backends() == ["fast", "reference"]


def test_get_backend_returns_shared_instances():
    assert get_backend("reference") is get_backend("reference")
    assert isinstance(get_backend("reference"), ReferenceBackend)
    assert isinstance(get_backend("fast"), FastBackend)


def test_unknown_name_lists_available():
    with pytest.raises(ValueError, match="nope.*fast, reference$"):
        get_backend("nope")


def test_default_is_reference():
    assert default_backend_name() == "reference"
    assert active_backend() is get_backend("reference")


def test_env_var_selects_default(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "fast")
    assert default_backend_name() == "fast"
    assert active_backend() is get_backend("fast")


def test_env_var_unknown_name_fails(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "gpu")
    with pytest.raises(ValueError, match="REPRO_BACKEND"):
        default_backend_name()


def test_set_default_overrides_env(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "fast")
    assert set_default_backend("reference") is None
    assert default_backend_name() == "reference"
    # Clearing restores the env-var lookup and returns the old override.
    assert set_default_backend(None) == "reference"
    assert default_backend_name() == "fast"


def test_set_default_rejects_unknown():
    with pytest.raises(ValueError, match="unknown compute backend"):
        set_default_backend("nope")


def test_use_backend_nests_and_restores():
    assert active_backend().name == "reference"
    with use_backend("fast") as fast:
        assert active_backend() is fast
        with use_backend("reference"):
            assert active_backend().name == "reference"
        assert active_backend() is fast
    assert active_backend().name == "reference"


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
        seen["name"] = active_backend().name

    with use_backend("fast"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    # The worker thread never saw the main thread's scope.
    assert seen["name"] == "reference"


def test_resolve_backend_forms():
    assert resolve_backend(None) is None
    assert resolve_backend("fast") is get_backend("fast")
    mine = ReferenceBackend()
    assert resolve_backend(mine) is mine


def test_register_backend_round_trip():
    class Custom(ComputeBackend):
        name = "custom-test"

    register_backend("custom-test", Custom)
    try:
        assert "custom-test" in available_backends()
        assert isinstance(get_backend("custom-test"), Custom)
        with use_backend("custom-test"):
            assert active_backend().name == "custom-test"
    finally:
        backend_mod._REGISTRY.pop("custom-test", None)
        backend_mod._instances.pop("custom-test", None)
