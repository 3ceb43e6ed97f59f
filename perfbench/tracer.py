"""Span tracing of hetflow's public functions, installed from outside the package.

:class:`Tracer` replaces each traced function, at the module attribute its
callers look up, by a wrapper that records one span: metric name, start, end
and parent span.  The package itself is not modified; :meth:`uninstall`
puts every original back, so untraced rounds run exactly the shipped code.

Spans live in flat ``array`` buffers while the run lasts and are written out
once at the end.  Self time is derived from the spans afterwards: a span's
duration minus the durations of its child spans, which nest and never
overlap.  That holds on one thread only; the benchmark runs the sweep's
serial path, and a span opened on any other thread is an error.
"""

from __future__ import annotations

import threading
import time
from array import array

import numpy as np

# (module, attribute, metric name).  Several attributes may share a metric
# name; their spans are summed under it.  ``het_flow`` imports the two
# connection/curvature helpers by name, so those references are wrapped too.
SPAN_TARGETS = (
    ("cli", "main", "cli.main"),
    ("homothety", "sweep_grid", "homothety.sweep_grid"),
    ("homothety", "classify", "homothety.classify"),
    ("homothety", "collapse_time_quadrature", "homothety.collapse_time_quadrature"),
    ("homothety", "integrate", "homothety.integrate"),
    ("homothety", "flat_closed_form", "homothety.closed_form"),
    ("homothety", "su2_closed_form", "homothety.closed_form"),
    ("homothety", "lambert_w", "homothety.closed_form"),
    ("het_flow", "integrate_flow", "het_flow.integrate_flow"),
    ("het_flow", "levi_civita_connection", "homogeneous.levi_civita_connection"),
    ("het_flow", "invariant_riemann", "homogeneous.invariant_riemann"),
    ("homogeneous", "levi_civita_connection", "homogeneous.levi_civita_connection"),
    ("homogeneous", "invariant_riemann", "homogeneous.invariant_riemann"),
    ("homogeneous", "build_invariant_sample", "homogeneous.build_invariant_sample"),
    ("tensor_core", "metric_inverse", "tensor_core.metric_inverse"),
    ("tensor_core", "riemann_from_ricci_dim3", "tensor_core.dim3_closed_forms"),
    ("tensor_core", "riemann_square_dim3", "tensor_core.dim3_closed_forms"),
    ("tensor_core", "riemann_norm2_dim3", "tensor_core.dim3_closed_forms"),
    ("tensor_core", "riemann_twisted_dim3", "tensor_core.dim3_closed_forms"),
    ("tensor_core", "riemann_square_twisted_dim3", "tensor_core.dim3_closed_forms"),
    ("tensor_core", "riemann_norm2_twisted_dim3", "tensor_core.dim3_closed_forms"),
    ("tensor_core", "riemann_square", "tensor_core.generic_contractions"),
    ("tensor_core", "riemann_norm2", "tensor_core.generic_contractions"),
    ("tensor_core", "riemann_wedge_riemann", "tensor_core.generic_contractions"),
    ("chart_jets", "build_chart_sample", "chart_jets.build_chart_sample"),
    ("chart_jets", "jet_einsum", "chart_jets.jet_einsum"),
    ("soliton", "verify_divergence_identities", "soliton.verify_divergence_identities"),
    ("soliton", "soliton_report", "soliton.soliton_report"),
)

# Span names reported as ``.calls`` and ``.self_s``; the rest only as ``.self_s``.
COUNTED = (
    "homothety.classify",
    "homothety.collapse_time_quadrature",
    "homothety.integrate",
    "het_flow.integrate_flow",
    "homogeneous.levi_civita_connection",
    "homogeneous.build_invariant_sample",
    "tensor_core.metric_inverse",
    "chart_jets.build_chart_sample",
    "chart_jets.jet_einsum",
    "soliton.verify_divergence_identities",
    "soliton.soliton_report",
)
TIMED = tuple(dict.fromkeys(name for _, _, name in SPAN_TARGETS))


class Tracer:
    """Records spans of the wrapped functions until :meth:`uninstall`."""

    def __init__(self, package) -> None:
        self._package = package
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        # rhs evaluations (solver ``nfev``) charged to an open integrate_flow span
        self.nfev = array("d")
        # integrate_flow spans whose trajectory ended in an event
        self.ended_in_event: set[int] = set()
        self._stack: list[int] = []  # open spans, innermost last
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        if threading.get_ident() != self._thread:
            raise RuntimeError("traced call on a second thread; the tracer supports one")
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nfev.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter() - self._origin)
        return idx

    def _span_wrapper(self, fn, name: str):
        name_id = self._name_id(name)
        watch_events = name == "het_flow.integrate_flow"
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter() - tracer._origin
                tracer._stack.pop()
            if watch_events and result.events:
                tracer.ended_in_event.add(idx)
            return result

        traced.__wrapped__ = fn
        return traced

    def _nfev_wrapper(self, fn):
        """Charge each solver result's ``nfev`` to the innermost open span."""
        tracer = self

        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            if tracer._stack:
                tracer.nfev[tracer._stack[-1]] += sol.nfev
            return sol

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in SPAN_TARGETS:
            module = getattr(self._package, module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._span_wrapper(original, name))
        het_flow = self._package.het_flow
        self._patches.append((het_flow, "solve_ivp", het_flow.solve_ivp))
        het_flow.solve_ivp = self._nfev_wrapper(het_flow.solve_ivp)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------

    def arrays(self) -> dict:
        """Snapshot of the recorded spans, the input of the analysis below."""
        return {
            "names": np.array(self._names),
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start).copy(),
            "end": np.frombuffer(self.end).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "nfev": np.frombuffer(self.nfev).copy(),
        }

    def write(self, path: str, a: dict) -> None:
        np.savez_compressed(path, **a)

    @staticmethod
    def self_times(a: dict) -> np.ndarray:
        """Per-span duration minus the durations of its children."""
        dur = a["end"] - a["start"]
        parent = a["parent"]
        child = parent >= 0
        return dur - np.bincount(parent[child], weights=dur[child], minlength=dur.size)

    def layer_totals(self, a: dict) -> tuple[dict, dict]:
        """``(calls, self seconds)`` summed per span name."""
        names = list(a["names"])
        self_s = self.self_times(a)
        calls = np.bincount(a["name"], minlength=len(names))
        seconds = np.bincount(a["name"], weights=self_s, minlength=len(names))
        return (
            {name: int(calls[i]) for i, name in enumerate(names)},
            {name: float(seconds[i]) for i, name in enumerate(names)},
        )

    def flow_counts(self, a: dict) -> dict:
        """rhs evaluations in total and over integrate_flow runs that ended in an event."""
        flow_id = self._name_ids.get("het_flow.integrate_flow")
        if flow_id is None:
            return {"rhs_evals": 0.0, "collapse_runs": 0, "collapse_rhs_evals": 0.0}
        spans = np.nonzero(a["name"] == flow_id)[0]
        events = np.array(sorted(self.ended_in_event), dtype=int)
        return {
            "rhs_evals": float(a["nfev"][spans].sum()),
            "collapse_runs": int(events.size),
            "collapse_rhs_evals": float(a["nfev"][events].sum()) if events.size else 0.0,
        }

    def quadrature_under_classify(self, a: dict) -> int:
        """Collapse-time quadratures whose parent span is a classify call."""
        quad_id = self._name_ids.get("homothety.collapse_time_quadrature")
        classify_id = self._name_ids.get("homothety.classify")
        if quad_id is None or classify_id is None:
            return 0
        quads = np.nonzero(a["name"] == quad_id)[0]
        parents = a["parent"][quads]
        parents = parents[parents >= 0]
        return int(np.sum(a["name"][parents] == classify_id))

