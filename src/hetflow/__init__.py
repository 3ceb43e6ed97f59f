"""Curvature-flow toolkit for metrics coupled to a three-form flux.

The package provides exact tensor algebra in three dimensions
(:mod:`hetflow.tensor_core`), two interchangeable geometry backends — local
polynomial charts differentiated by truncated jets
(:mod:`hetflow.chart_jets`) and left-invariant metrics on three-dimensional
Lie groups (:mod:`hetflow.homogeneous`) — a scalar conformal-factor
reduction of the flow with closed forms and a behavior classifier
(:mod:`hetflow.homothety`), the coupled metric/flux evolution equations
(:mod:`hetflow.het_flow`), residual checks and exact constructors for the
stationary solutions (:mod:`hetflow.soliton`), and a deterministic command
line (:mod:`hetflow.cli`).
"""

import importlib

from . import chart_jets, het_flow, homogeneous, homothety, soliton, tensor_core
from .chart_jets import GeometrySample, build_chart_sample, random_chart_sample
from .het_flow import FlowParams, FlowState3, integrate_flow, rhs_3d, rhs_general
from .homogeneous import (
    LieAlgebraData,
    build_invariant_sample,
    catalog,
    random_invariant_sample,
)
from .homothety import (
    Behavior,
    BehaviorTag,
    HomothetyProblem,
    Trajectory,
    classify,
    integrate,
    sweep_grid,
)
from .soliton import (
    ResidualReport,
    SolitonCandidate,
    classify_constant_dilaton,
    heisenberg_strong_soliton,
    hyperbolic_soliton,
    soliton_report,
    verify_divergence_identities,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # The command line is imported on first use, so that ``python -m
    # hetflow.cli`` finds it unimported and runs it without runpy's warning.
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "tensor_core",
    "chart_jets",
    "homogeneous",
    "homothety",
    "het_flow",
    "soliton",
    "cli",
    "GeometrySample",
    "build_chart_sample",
    "random_chart_sample",
    "LieAlgebraData",
    "catalog",
    "build_invariant_sample",
    "random_invariant_sample",
    "HomothetyProblem",
    "Trajectory",
    "Behavior",
    "BehaviorTag",
    "integrate",
    "classify",
    "sweep_grid",
    "FlowState3",
    "FlowParams",
    "rhs_3d",
    "rhs_general",
    "integrate_flow",
    "SolitonCandidate",
    "ResidualReport",
    "soliton_report",
    "heisenberg_strong_soliton",
    "hyperbolic_soliton",
    "classify_constant_dilaton",
    "verify_divergence_identities",
]
