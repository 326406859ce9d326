"""Fixtures shared across the tier-1 suite."""

import pytest

from repro.sim.process import Process


@pytest.fixture
def created_processes(monkeypatch):
    """Every ``Process`` constructed while the test runs, in order."""
    created = []
    init = Process.__init__

    def counting_init(self, *args, **kwargs):
        created.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Process, "__init__", counting_init)
    return created
