"""Shared fixtures."""

import tracemalloc

import numpy as np
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


@pytest.fixture
def stream():
    """stream(seed, *path): the Philox generator of the seed sequence with
    that entropy and spawn key, so stream(seed) draws what make_rng(seed)
    draws."""

    def make(seed, *path):
        return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))

    return make


@pytest.fixture
def traced_peak():
    """traced_peak(fn, *args): (fn(*args), the peak of traced memory while fn
    ran, in bytes above what was traced when it was called).  NumPy reports
    its array buffers to tracemalloc, so this counts every array fn makes."""

    def measure(fn, *args, **kwargs):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        return result, peak

    return measure
