import pytest

from coxgrowth import rootsystem


@pytest.fixture(autouse=True)
def fresh_root_systems(monkeypatch):
    """Each test starts with no shared root systems, so the tables, affine
    groups and pipelines cached on them are built afresh within the test."""
    monkeypatch.setattr(rootsystem, "_INTERNED", {})
