"""Deterministic command-line front end.

Verbs
-----
``homothety``
    Integrate one scalar conformal-factor reduction and emit a ``t,sigma,f``
    CSV (with a closed-form comparison column when one exists).
``sweep``
    Classify the long-time behavior over a ``(kappa, mu)`` grid and emit one
    tag per grid cell, ordered by grid index.
``flow``
    Integrate the coupled metric/flux flow on an invariant geometry and emit
    the metric components and flux scale along the way.
``soliton-check``
    Evaluate every named residual of the coupled and strong systems on a
    candidate and emit a JSON report.
``verify``
    Run batch verification suites (curvature identities, divergence
    identities, soliton constructors, and stationarity: the flow law on each
    candidate's own Ricci data) and emit a JSON summary.  The samples are
    built once per command and stacked on a batch axis, and each suite makes
    one call per check over its whole stack, so the suites' contractions do
    not grow in number with ``--trials``.

Exit codes: 0 success, 1 configuration error, 2 numerical-domain error,
3 verification failure.  Output files are written atomically (temp file +
rename) so a failing run never leaves partial output.  Given the same
configuration and seed, outputs are byte-identical across runs on one
platform.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import chart_jets as cj
from . import het_flow as hf
from . import homogeneous as hg
from . import homothety as ht
from . import soliton as so
from . import tensor_core as tc

__all__ = [
    "RunConfig",
    "ConfigError",
    "main",
    "cmd_homothety",
    "cmd_sweep",
    "cmd_flow",
    "cmd_soliton_check",
    "cmd_verify",
]

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3


class ConfigError(Exception):
    """Malformed configuration: unknown keys, bad values, missing files."""


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one CLI invocation.

    All numerics must be finite, grid bounds ordered, and the seed defaults
    to zero so repeated runs are reproducible by construction.
    """

    command: str
    case: str = "positive"
    algebra: str = "heisenberg"
    algebra_param: float | None = None
    kappa: float = 1.0
    mu: float = 0.0
    s: float = 0.0
    f: float | None = None
    sigma0: float = 1.0
    metric_diag: tuple | None = None
    t_min: float = 0.0
    t_max: float = 10.0
    n_points: int = 201
    kappa_min: float = 0.0
    kappa_max: float = 1.0
    kappa_steps: int = 21
    mu_min: float = 0.0
    mu_max: float = 2.0
    mu_steps: int = 21
    rtol: float = 1e-10
    atol: float = 1e-12
    tol: float | None = None
    suite: str = "all"
    trials: int = 100
    seed: int = 0
    output: str | None = None

    def __post_init__(self) -> None:
        numerics = {
            "kappa": self.kappa,
            "mu": self.mu,
            "s": self.s,
            "sigma0": self.sigma0,
            "t_min": self.t_min,
            "t_max": self.t_max,
            "kappa_min": self.kappa_min,
            "kappa_max": self.kappa_max,
            "mu_min": self.mu_min,
            "mu_max": self.mu_max,
            "rtol": self.rtol,
            "atol": self.atol,
        }
        for key, value in numerics.items():
            if not np.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        for key, value in (("f", self.f), ("tol", self.tol), ("algebra_param", self.algebra_param)):
            if value is not None and not np.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
        if self.rtol <= 0.0 or self.atol < 0.0:
            raise ConfigError("rtol must be positive and atol non-negative")
        if self.kappa_min > self.kappa_max or self.mu_min > self.mu_max:
            raise ConfigError("grid bounds must be ordered (min <= max)")
        if self.kappa_steps < 1 or self.mu_steps < 1:
            raise ConfigError("grid steps must be at least 1")
        if self.n_points < 2:
            raise ConfigError("n_points must be at least 2")
        if self.trials < 1:
            raise ConfigError("trials must be at least 1")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.metric_diag is not None:
            diag = tuple(float(x) for x in self.metric_diag)
            if len(diag) != 3 or not all(np.isfinite(x) for x in diag):
                raise ConfigError("metric_diag must be three finite numbers")
            object.__setattr__(self, "metric_diag", diag)


def _float_cell(x: float) -> str:
    """Shortest round-trip decimal form; deterministic on one platform."""
    return repr(float(x))


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path`` and rename it into
    place, with the mode a plain ``open`` would give (``mkstemp`` makes 0600)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hetflow-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        umask = os.umask(0)  # the only way to read it; set back at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.output:
        _atomic_write(cfg.output, text)
    else:
        sys.stdout.write(text)


def _worker_count() -> int:
    # The sweep has no pool; perfbench/run.py records this in its run record.
    return 1


def _algebra_from_config(cfg: RunConfig) -> hg.LieAlgebraData:
    name = cfg.algebra
    if name not in hg.CATALOG_NAMES:
        raise ConfigError(f"unknown algebra {name!r}; expected one of {hg.CATALOG_NAMES}")
    if name == "su2":
        return hg.catalog("su2", kappa=cfg.algebra_param if cfg.algebra_param is not None else 1.0)
    if name == "hyperbolic":
        return hg.catalog("hyperbolic", c=cfg.algebra_param if cfg.algebra_param is not None else 1.0)
    return hg.catalog(name)


# ---------------------------------------------------------------------------
# homothety
# ---------------------------------------------------------------------------


def _closed_form_fn(problem: ht.HomothetyProblem):
    """Closed-form sigma(t) when one exists for the problem, else ``None``."""
    if problem.sigma0 != 1.0:
        return None
    if problem.case == "flat":
        return lambda t: ht.flat_closed_form(problem.kappa, problem.mu, t)
    if problem.case == "su2":
        return lambda t: ht.su2_closed_form(problem.kappa, t)
    return None


def cmd_homothety(cfg: RunConfig) -> int:
    try:
        problem = ht.HomothetyProblem(
            case=cfg.case, kappa=cfg.kappa, mu=cfg.mu, s=cfg.s, sigma0=cfg.sigma0
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    trajectory = ht.integrate(
        problem, (cfg.t_min, cfg.t_max), rtol=cfg.rtol, atol=cfg.atol, n_points=cfg.n_points
    )
    closed = _closed_form_fn(problem)
    header = ["t", "sigma", "f"]
    if closed is not None:
        header.append("sigma_closed")
    lines = [",".join(header)]
    rows = list(zip(trajectory.t, trajectory.sigma, trajectory.f))
    mu_eff = 0.0 if problem.case == "su2" else problem.mu
    # An event is a threshold crossing, so its sigma is positive.
    rows += [(event.t, event.y[0], mu_eff * event.y[0] ** -1.5) for event in trajectory.events]
    for t, sigma, f_val in rows:
        cells = [_float_cell(t), _float_cell(sigma), _float_cell(f_val)]
        if closed is not None:
            try:
                cells.append(_float_cell(closed(float(t))))
            except (ValueError, OverflowError):
                cells.append("")
        lines.append(",".join(cells))
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.case not in ("positive", "flat", "negative", "su2"):
        raise ConfigError(f"sweep case must be positive/flat/negative/su2, got {cfg.case!r}")
    # RunConfig keeps the bounds finite and ordered, so every cell's coupling
    # is valid exactly when the smallest kappa is.
    try:
        ht.HomothetyProblem(case=cfg.case, kappa=cfg.kappa_min)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    kappas = np.linspace(cfg.kappa_min, cfg.kappa_max, cfg.kappa_steps)
    mus = np.linspace(cfg.mu_min, cfg.mu_max, cfg.mu_steps)
    tags = ht.sweep_grid(cfg.case, kappas, mus)
    mu_cells = [_float_cell(mu) for mu in mus]
    names = {tag: tag.value for tag in ht.BehaviorTag}  # each tag's string once per grid, not Enum.value per cell
    lines = ["i,j,kappa,mu,tag"]
    for i, (kap, row) in enumerate(zip(kappas, tags)):
        kap_cell = _float_cell(kap)
        for j, (mu_cell, tag) in enumerate(zip(mu_cells, row)):
            lines.append(f"{i},{j},{kap_cell},{mu_cell},{names[tag]}")
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# flow
# ---------------------------------------------------------------------------


def cmd_flow(cfg: RunConfig) -> int:
    alg = _algebra_from_config(cfg)
    diag = cfg.metric_diag if cfg.metric_diag is not None else (1.0, 1.0, 1.0)
    f0 = cfg.f if cfg.f is not None else 1.0
    state = hf.FlowState3(algebra=alg, g=np.diag(diag), f=f0)
    params = hf.FlowParams(
        kappa=cfg.kappa,
        t_span=(cfg.t_min, cfg.t_max),
        rtol=cfg.rtol,
        atol=cfg.atol,
        n_points=cfg.n_points,
    )
    trajectory = hf.integrate_flow(state, params)
    g = trajectory.g
    table = np.column_stack(
        (trajectory.t, g[:, 0, 0], g[:, 0, 1], g[:, 0, 2], g[:, 1, 1], g[:, 1, 2], g[:, 2, 2], trajectory.f)
    ).tolist()
    lines = ["t,g11,g12,g13,g22,g23,g33,f"]
    lines += [",".join(map(repr, row)) for row in table]  # Python floats: repr is _float_cell's form
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# soliton-check
# ---------------------------------------------------------------------------


def _candidate_from_config(cfg: RunConfig) -> so.SolitonCandidate:
    if cfg.kappa <= 0.0:
        raise ConfigError("soliton-check requires kappa > 0")
    untouched = cfg.metric_diag is None and cfg.f is None
    if cfg.algebra == "heisenberg" and untouched:
        return so.heisenberg_strong_soliton(cfg.kappa)
    if cfg.algebra == "hyperbolic" and untouched and cfg.algebra_param is None:
        return so.hyperbolic_soliton(cfg.kappa)
    alg = _algebra_from_config(cfg)
    diag = cfg.metric_diag if cfg.metric_diag is not None else (1.0, 1.0, 1.0)
    f0 = cfg.f if cfg.f is not None else 1.0
    sample = hg.build_invariant_sample(alg, np.diag(diag), f0)
    return so.SolitonCandidate(sample, cfg.kappa, name=cfg.algebra)


def cmd_soliton_check(cfg: RunConfig) -> int:
    candidate = _candidate_from_config(cfg)
    tol = cfg.tol if cfg.tol is not None else so.TOL_CONSTRUCTOR
    report = so.soliton_report(candidate, tol=tol)
    payload = report.to_json_dict()
    payload["command"] = "soliton-check"
    _emit(cfg, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if report.all_passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


# The exact soliton families of the constructor suite: argument factory and
# the constant-dilaton case the family realises.
_SOLITON_FAMILIES = ((so._heisenberg_args, 1), (so._hyperbolic_args, 3))


def _stacked(samples: list) -> cj.GeometrySample:
    """The samples as one, every field stacked on a leading batch axis."""
    fields = dataclasses.fields(cj.GeometrySample)
    names = [item.name for item in fields if item.name not in ("backend", "meta")]
    return cj.GeometrySample(
        backend="+".join(dict.fromkeys(sample.backend for sample in samples)),
        **{name: np.array([getattr(sample, name) for sample in samples]) for name in names},
    )


def _verify_samples(selected: tuple, trials: int, seed: int) -> dict:
    """Every sample the selected suites read, built once per call in at most
    two passes (the chart samples in one; the identity suite's invariant
    samples and the soliton candidates in the other), then stacked once for
    each suite that reads them; the soliton suite gets one candidate holding
    every family member, and their constant-dilaton cases."""
    charts = []
    if {"identities", "divergence"} & set(selected):
        specs = [cj.random_chart_spec(seed + k, maxwell=bool(k % 2)) for k in range(trials)]
        charts = cj.build_chart_samples(specs)
    args = []
    if "identities" in selected:
        args += [hg._random_invariant_args(seed + k) for k in range(trials)]
    n_invariant = len(args)
    kappas, cases = [], []
    if "solitons" in selected:
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            kappa = float(rng.uniform(0.2, 5.0))
            for make_args, case in _SOLITON_FAMILIES:
                args.append(make_args(kappa))
                kappas.append(kappa)
                cases.append(case)
    built = hg.build_invariant_samples(args)
    stacks = {}
    if "identities" in selected:
        stacks["identities"] = _stacked(charts + built[:n_invariant])
    if "divergence" in selected:
        stacks["divergence"] = _stacked(charts)
    if "solitons" in selected:
        families = so.SolitonCandidate(_stacked(built[n_invariant:]), np.array(kappas), name="families")
        stacks["solitons"] = families, cases
    return stacks


def _suite_identities(seed: int, samples: dict) -> list[tuple]:
    """Curvature-identity suite: generic contractions against the 3D closed forms,
    over chart and homogeneous samples.  Each suite returns its checks as
    ``(name, worst, tol)``, ``worst`` the largest of the per-sample values."""
    s = samples["identities"]
    g, g_inv, ric, scal, f, df = s.g, s.g_inv, s.ricci, s.scalar, s.f, s.df
    pairs = (
        ("curvature_reconstruction", s.riemann, tc.riemann_from_ricci_dim3(g, ric, scal)),
        ("curvature_square_expansion",
         tc.riemann_square(g_inv, s.riemann), tc.riemann_square_dim3(g, g_inv, ric, scal)),
        ("curvature_norm_expansion",
         tc.riemann_norm2(g_inv, s.riemann), tc.riemann_norm2_dim3(g_inv, ric, scal)),
        ("twisted_square_expansion",
         s.riemann_tw_sq, tc.riemann_square_twisted_dim3(g, g_inv, ric, scal, f, df, s.orientation)),
        ("twisted_norm_expansion",
         s.riemann_tw_norm2, tc.riemann_norm2_twisted_dim3(g_inv, ric, scal, f, df)),
    )
    return [(name, float(np.max(tc.rel_err(generic, closed, batch=1))), 1e-9)
            for name, generic, closed in pairs]


def _suite_divergence(seed: int, samples: dict) -> list[tuple]:
    """Divergence-identity suite over chart samples with nonconstant f, phi."""
    charts = samples["divergence"]
    kappas = np.random.default_rng(seed).uniform(0.05, 3.0, size=len(charts.f))
    report = so.verify_divergence_identities(charts, kappas)
    return [(name, eq.value, 1e-8) for name, eq in report.equations.items()]


def _suite_solitons(seed: int, samples: dict) -> list[tuple]:
    """Constructor suite: residuals, classification round-trip, and
    stationarity, the flow law evaluated on each candidate's own Ricci data."""
    families, cases = samples["solitons"]
    s, kappa = families.sample, families.kappa
    eigs, _ = tc.principal_values(s.g, s.ricci)
    g_dot, f_dot = hf._rhs_3d_core(s.g, s.g_inv, s.ricci, s.scalar, s.f, kappa)
    misclassified = any(so.classify_ricci_spectrum(w, k).case != c for w, k, c in zip(eigs, kappa, cases))
    residuals = so.soliton_report(families).equations.values()
    return [
        ("constructor_residuals", max(eq.value for eq in residuals), 1e-12),
        ("discriminant_unity", float(np.max(np.abs(so.residual_quadratic_form(families)[1] - 1.0))), 1e-12),
        ("classification_roundtrip", float(misclassified), 0.0),
        ("stationarity", max(float(np.max(np.abs(g_dot))), float(np.max(np.abs(f_dot)))), 1e-10),
    ]


_SUITES = {
    "identities": _suite_identities,
    "divergence": _suite_divergence,
    "solitons": _suite_solitons,
}


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.suite not in (*_SUITES, "all"):
        raise ConfigError(
            f"unknown suite {cfg.suite!r}; expected one of {tuple(_SUITES)} or 'all'"
        )
    selected = tuple(_SUITES) if cfg.suite == "all" else (cfg.suite,)
    # Built once per call: the identity and divergence suites read the same
    # chart samples, and nothing keeps them past this command.
    samples = _verify_samples(selected, cfg.trials, cfg.seed)
    checks = []
    for name in selected:
        for check, worst, tol in _SUITES[name](cfg.seed, samples):
            checks.append({"suite": name, "name": check, "worst": worst, "tol": tol, "pass": worst <= tol})
    all_pass = all(check["pass"] for check in checks)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "suite": cfg.suite,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "checks": checks,
        "all_pass": all_pass,
    }
    _emit(cfg, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if all_pass else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors map to the config exit code."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON file with defaults; flags override it")
    sub.add_argument("--output", help="output path (atomic write); stdout when omitted")


@functools.cache
def _build_parser() -> tuple:
    """The ``hetflow`` parser and its subparsers by command name, built once
    per process: parsing leaves them unchanged."""
    parser = _Parser(prog="hetflow", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homothety", argument_default=argparse.SUPPRESS,
                       help="integrate one conformal-factor reduction")
    p.add_argument("--case", choices=("positive", "flat", "negative", "su2", "general"))
    p.add_argument("--kappa", type=float)
    p.add_argument("--mu", type=float)
    p.add_argument("--s", type=float)
    p.add_argument("--sigma0", type=float)
    p.add_argument("--t-min", dest="t_min", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--n-points", dest="n_points", type=int)
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    _add_common(p)

    p = sub.add_parser("sweep", argument_default=argparse.SUPPRESS,
                       help="classify behavior over a (kappa, mu) grid")
    p.add_argument("--case", choices=("positive", "flat", "negative", "su2"))
    p.add_argument("--kappa-min", dest="kappa_min", type=float)
    p.add_argument("--kappa-max", dest="kappa_max", type=float)
    p.add_argument("--kappa-steps", dest="kappa_steps", type=int)
    p.add_argument("--mu-min", dest="mu_min", type=float)
    p.add_argument("--mu-max", dest="mu_max", type=float)
    p.add_argument("--mu-steps", dest="mu_steps", type=int)
    _add_common(p)

    p = sub.add_parser("flow", argument_default=argparse.SUPPRESS,
                       help="integrate the coupled flow on an invariant geometry")
    p.add_argument("--algebra", choices=hg.CATALOG_NAMES)
    p.add_argument("--algebra-param", dest="algebra_param", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--f", type=float)
    p.add_argument("--metric-diag", dest="metric_diag", type=float, nargs=3)
    p.add_argument("--t-min", dest="t_min", type=float)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--n-points", dest="n_points", type=int)
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    _add_common(p)

    p = sub.add_parser("soliton-check", argument_default=argparse.SUPPRESS,
                       help="evaluate all soliton residuals on a candidate")
    p.add_argument("--algebra", choices=hg.CATALOG_NAMES)
    p.add_argument("--algebra-param", dest="algebra_param", type=float)
    p.add_argument("--kappa", type=float)
    p.add_argument("--f", type=float)
    p.add_argument("--metric-diag", dest="metric_diag", type=float, nargs=3)
    p.add_argument("--tol", type=float)
    _add_common(p)

    p = sub.add_parser("verify", argument_default=argparse.SUPPRESS,
                       help="run batch verification suites")
    p.add_argument("--suite", choices=(*_SUITES, "all"))
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    _add_common(p)

    return parser, sub.choices


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _config_from_args(ns: argparse.Namespace, sub: argparse.ArgumentParser) -> RunConfig:
    """Merge the ``--config`` file under the flags of ``sub``, the command's subparser.

    A file key must be the ``dest`` of one of the command's options: a key
    the command never reads is an error, not silently ignored.
    """
    merged: dict = {}
    raw = vars(ns)
    if raw.get("config"):
        merged.update(_load_config_file(raw["config"]))
        options = {action.dest for action in sub._actions} - {"help", "config"}
        unknown = set(merged) - options
        if unknown:
            raise ConfigError(f"unknown config keys for {ns.command!r}: {sorted(unknown)}")
    merged.update({k: v for k, v in raw.items() if k not in ("config", "command")})
    if "metric_diag" in merged and merged["metric_diag"] is not None:
        merged["metric_diag"] = tuple(merged["metric_diag"])
    try:
        return RunConfig(command=ns.command, **merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


_COMMANDS = {
    "homothety": cmd_homothety,
    "sweep": cmd_sweep,
    "flow": cmd_flow,
    "soliton-check": cmd_soliton_check,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = _config_from_args(ns, subparsers[ns.command])
        return _COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical-domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
