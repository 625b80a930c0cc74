"""Shared fixtures."""

import pytest

from polylap import cli
from polylap import experiments as xp
from polylap import graph as graph_module


@pytest.fixture
def refuse(monkeypatch):
    """refuse(*names): each named function fails the test wherever the CLI,
    the experiments or the graph module bind it."""

    def install(*names):
        for name in names:

            def fail(*args, _name=name, **kwargs):
                pytest.fail(f"{_name} called")

            for module in (cli, xp, graph_module):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, fail)

    return install
