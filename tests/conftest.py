"""Shared fixtures: deterministic RNGs and reusable geometry samples."""

import dataclasses

import numpy as np
import pytest

from hetflow import chart_jets as cj
from hetflow import cli
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


def _chart_laplacian(spec) -> float:
    """``laplace f = -g^ab (d_a d_b f - Gamma^m_ab d_m f)`` of a chart spec's
    density at the origin, from its jets (samples carry no Laplacian)."""
    g_inv = cj.jet_matrix_inverse(spec.metric)[0]
    gamma = cj.jet_value(cj.christoffel_jets(spec.metric, g_inv))
    df = cj.jet_value(cj.jet_grad(spec.density))
    hess_f = cj.jet_value(cj.jet_grad(cj.jet_grad(spec.density))) - np.einsum("abm,m->ab", gamma, df)
    return -float(np.tensordot(cj.jet_value(g_inv), hess_f, axes=2))


@pytest.fixture
def chart_laplacian():
    """The Laplacian of a chart spec's density at the origin (a function of the spec)."""
    return _chart_laplacian


def _assert_samples_match(batch, singles, rtol: float = 1e-15) -> None:
    """Samples agree field by field to ``rtol`` relative to ``max(1, |x|)``."""
    assert len(batch) == len(singles)
    for k, (a, b) in enumerate(zip(batch, singles)):
        assert (a.backend, a.orientation, a.meta) == (b.backend, b.orientation, b.meta), k
        for item in dataclasses.fields(a):
            if item.name in ("backend", "orientation", "meta"):
                continue
            x, y = np.asarray(getattr(a, item.name)), np.asarray(getattr(b, item.name))
            assert x.shape == y.shape, (k, item.name)
            assert np.all(np.abs(x - y) <= rtol * np.maximum(1.0, np.abs(y))), (k, item.name)


@pytest.fixture
def samples_match():
    """Check that a batch build agrees with batches of one, field by field."""
    return _assert_samples_match


@pytest.fixture(scope="session")
def mixed_stack(chart_samples, invariant_samples):
    """``(stack, samples)``: chart and invariant samples, every third one with
    its orientation reversed, and the same samples stacked as ``verify`` does."""
    samples = [
        dataclasses.replace(s, orientation=-s.orientation) if k % 3 == 0 else s
        for k, s in enumerate(chart_samples + invariant_samples)
    ]
    return cli._stacked(samples), samples


def _assert_slices_match(batched, singles, rtol: float = 1e-15) -> None:
    """Slice ``k`` of ``batched`` equals ``singles[k]`` to ``rtol`` relative
    to ``max(1, max|singles[k]|)``."""
    batched = np.asarray(batched)
    assert batched.shape == (len(singles),) + np.shape(singles[0])
    for k, single in enumerate(singles):
        y = np.asarray(single)
        scale = max(1.0, float(np.max(np.abs(y), initial=0.0)))
        assert float(np.max(np.abs(batched[k] - y), initial=0.0)) <= rtol * scale, k


@pytest.fixture
def slices_match():
    """Check a batched result slice by slice against unbatched calls."""
    return _assert_slices_match
