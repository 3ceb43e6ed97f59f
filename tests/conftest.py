"""Shared fixtures: deterministic RNGs and reusable geometry samples."""

import numpy as np
import pytest

from hetflow import chart_jets as cj
from hetflow import homogeneous as hg


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)


@pytest.fixture
def random_spd(rng):
    """Factory for random symmetric positive-definite matrices."""

    def make(n: int = 3) -> np.ndarray:
        a = rng.normal(size=(n, n))
        return a @ a.T + 0.5 * np.eye(n)

    return make


@pytest.fixture
def count_calls(monkeypatch):
    """Factory: record every call of ``module.name`` for the test's duration."""

    def install(module, name: str) -> list:
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


@pytest.fixture(scope="session")
def chart_samples():
    """A small bank of generic chart samples shared across tests."""
    return [cj.random_chart_sample(seed, maxwell=bool(seed % 2)) for seed in range(8)]


@pytest.fixture(scope="session")
def invariant_samples():
    """A small bank of random invariant-geometry samples."""
    return [hg.random_invariant_sample(seed) for seed in range(8)]
