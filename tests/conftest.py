"""Shared fixtures: deterministic RNGs and reusable geometry samples."""

import dataclasses

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


def _assert_samples_match(batch, singles) -> None:
    """Samples agree field by field, bit for bit: every jet sum runs in one
    order, so a sample's bytes do not depend on the batch it is built in."""
    assert len(batch) == len(singles)
    for k, (a, b) in enumerate(zip(batch, singles)):
        assert (a.backend, a.orientation, a.meta) == (b.backend, b.orientation, b.meta), k
        for item in dataclasses.fields(a):
            if item.name in ("backend", "orientation", "meta"):
                continue
            x, y = np.asarray(getattr(a, item.name)), np.asarray(getattr(b, item.name))
            assert (x.shape, x.dtype, x.tobytes()) == (y.shape, y.dtype, y.tobytes()), (k, item.name)


@pytest.fixture
def samples_match():
    """Check that a batch build agrees with batches of one, field by field."""
    return _assert_samples_match


def _split(batch) -> list:
    """The batch as one sample per entry, split as the assembly once handed
    its samples out: the reference that indexing a batch must reproduce."""
    columns = [v.tolist() if v.ndim == 1 else list(v) for v in (getattr(batch, name) for name in cj._FIELDS)]
    return [
        cj.GeometrySample(backend=batch.backend, orientation=orientation, meta=meta, **dict(zip(cj._FIELDS, row)))
        for orientation, meta, *row in zip(batch.orientation.tolist(), batch.meta, *columns)
    ]


def _stacked(samples: list) -> cj.GeometrySample:
    """The samples as one, every field stacked on a leading batch axis, as
    ``verify`` once restacked the split samples: the reference that the
    batches it reads must reproduce bit for bit."""
    fields = dataclasses.fields(cj.GeometrySample)
    names = [item.name for item in fields if item.name not in ("backend", "meta")]
    return cj.GeometrySample(
        backend="+".join(dict.fromkeys(sample.backend for sample in samples)),
        **{name: np.array([getattr(sample, name) for sample in samples]) for name in names},
    )


@pytest.fixture
def split_and_stacked():
    """``(split, stacked)``: the per-sample split of a batch and the restack
    of split samples, as they were before batches were read as built."""
    return _split, _stacked


@pytest.fixture(scope="session")
def mixed_stack():
    """``(stack, samples)``: a batch of 8 chart and 8 invariant samples, every
    third one with its orientation reversed, and its entries one by one."""
    charts = cj.build_chart_samples([cj.random_chart_spec(seed, maxwell=bool(seed % 2)) for seed in range(8)])
    invariants = hg.build_invariant_samples([hg._random_invariant_args(seed) for seed in range(8)])
    stack = cj.GeometrySample(
        backend="chart+homogeneous", meta=charts.meta + invariants.meta,
        **{name: np.concatenate((getattr(charts, name), getattr(invariants, name)))
           for name in (*cj._FIELDS, "orientation")},
    )
    stack.orientation[::3] *= -1
    return stack, list(stack)


def _assert_slices_match(batched, singles) -> None:
    """Slice ``k`` of ``batched`` has the bytes of ``singles[k]``."""
    batched = np.asarray(batched, dtype=float)
    assert batched.shape == (len(singles),) + np.shape(singles[0])
    for k, single in enumerate(singles):
        assert batched[k].tobytes() == np.asarray(single, dtype=float).tobytes(), k


@pytest.fixture
def slices_match():
    """Check a batched result slice by slice against unbatched calls."""
    return _assert_slices_match
