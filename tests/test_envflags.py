"""Process-wide environment snapshots (repro.envflags)."""

import pytest

from repro import envflags


@pytest.fixture(autouse=True)
def clean_snapshot(monkeypatch):
    """Each test starts and ends with a fresh environment read."""
    envflags.reset()
    yield
    monkeypatch.undo()
    envflags.reset()


def test_unset_is_false(monkeypatch):
    monkeypatch.delenv(envflags.ARTIFACT_CACHE_ENV, raising=False)
    envflags.reset()
    assert envflags.artifact_cache_dir() is None


def test_snapshot_ignores_later_changes(monkeypatch, tmp_path):
    monkeypatch.delenv(envflags.ARTIFACT_CACHE_ENV, raising=False)
    envflags.reset()
    assert envflags.artifact_cache_dir() is None
    # Flipping the environment *without* reset() must not change the
    # answer: the value is read once per process.
    monkeypatch.setenv(envflags.ARTIFACT_CACHE_ENV, str(tmp_path))
    assert envflags.artifact_cache_dir() is None
    envflags.reset()
    assert envflags.artifact_cache_dir() == str(tmp_path)


def test_simulation_backend_names_the_packed_kernel():
    assert envflags.simulation_backend() == "packed"
