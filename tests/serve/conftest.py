"""Shared fixtures for service tests."""

import pytest

from repro.experiments.spec import ExperimentSpec


@pytest.fixture()
def def_calls(monkeypatch):
    """The experiment ids of every definition call from here on."""
    calls = []
    call = ExperimentSpec.__call__

    def counting(self, *args, **kwargs):
        calls.append(self.experiment_id)
        return call(self, *args, **kwargs)

    monkeypatch.setattr(ExperimentSpec, "__call__", counting)
    return calls
