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
    built once per command, in batches that carry a leading batch axis, and
    each suite makes one call per check over the batch it reads, so the
    suites' contractions do not grow in number with ``--trials``.

Exit codes: 0 success, 1 configuration error, 2 numerical-domain error,
3 verification failure.  Output files are written atomically (temp file +
rename) so a failing run never leaves partial output.  Given the same
configuration and seed, outputs are byte-identical across runs on one
platform.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import operator
import os
import re
import sys
import types
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

    Counts must be integers and every other numeric a finite real number (a
    ``bool`` is neither), stored as a Python ``float``; grid bounds must be
    ordered, and the seed defaults to zero so repeated runs are reproducible
    by construction.  A value of the wrong type is a :class:`ConfigError`
    that names its key.
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
        for key in _TEXT_FIELDS:
            if not isinstance(getattr(self, key), str):
                raise ConfigError(f"{key} must be a string, got {getattr(self, key)!r}")
        if self.output is not None and not isinstance(self.output, str):
            raise ConfigError(f"output must be a string, got {self.output!r}")
        for key in _COUNT_FIELDS:
            object.__setattr__(self, key, _count(key, getattr(self, key)))
        for key in _REAL_FIELDS:
            value = getattr(self, key)
            if value is not None or key not in _OPTIONAL_REAL_FIELDS:
                object.__setattr__(self, key, _finite_real(key, value))
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
            try:
                diag = tuple(_finite_real("metric_diag", x) for x in self.metric_diag)
            except TypeError:
                diag = ()
            if len(diag) != 3:
                raise ConfigError("metric_diag must be three finite numbers")
            object.__setattr__(self, "metric_diag", diag)


_TEXT_FIELDS = ("command", "case", "algebra", "suite")
_COUNT_FIELDS = ("n_points", "kappa_steps", "mu_steps", "trials", "seed")
_OPTIONAL_REAL_FIELDS = ("algebra_param", "f", "tol")
_REAL_FIELDS = (
    "kappa", "mu", "s", "sigma0", "t_min", "t_max", "kappa_min", "kappa_max",
    "mu_min", "mu_max", "rtol", "atol", *_OPTIONAL_REAL_FIELDS,
)


def _count(key: str, value) -> int:
    """``value`` as a Python ``int``; a ``bool`` or a non-integer is a :class:`ConfigError`."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{key} must be an integer, got {value!r}")


def _finite_real(key: str, value) -> float:
    """``value`` as a finite Python ``float``; a ``bool``, a non-real or a
    value that overflows a double is a :class:`ConfigError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{key} overflows a double") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def _float_cell(x: float) -> str:
    """Shortest round-trip decimal form; deterministic on one platform."""
    return repr(float(x))


def _row_format(width: int) -> str:
    """A ``%`` format of ``width`` comma-separated cells; a Python float's
    ``%r`` is its ``repr``, :func:`_float_cell`'s form, so a row is formatted
    in one operation."""
    return ",".join(["%r"] * width)


# Names tried for the temporary file before giving up, as tempfile.TMP_MAX.
_TMP_ATTEMPTS = 10000


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path`` and rename it into
    place.  The file is created with mode 0666 less the umask, as a plain
    ``open`` creates it, under an unpredictable ``.hetflow-*.part`` name
    that must not exist yet; a failed write removes it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    for _ in range(_TMP_ATTEMPTS):
        tmp = os.path.join(directory, f".hetflow-{os.urandom(8).hex()}.part")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    else:
        raise FileExistsError(f"no unused temporary file name in {directory!r}")
    try:
        try:
            data = memoryview(text.encode("utf-8"))
            while data:  # os.write may write less than it was given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
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
    rows = list(zip(trajectory.t.tolist(), trajectory.sigma.tolist(), trajectory.f.tolist()))
    mu_eff = 0.0 if problem.case == "su2" else problem.mu
    # An event is a threshold crossing, so its sigma is positive.
    rows += [(event.t, event.y[0], mu_eff * event.y[0] ** -1.5) for event in trajectory.events]
    row_format = _row_format(3)
    for row in rows:
        line = row_format % row
        if closed is not None:
            try:
                line += "," + repr(closed(row[0]))
            except (ValueError, OverflowError):
                line += ","
        lines.append(line)
    _emit(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


# A tag's string, read without hashing the Enum member.
_TAG_NAME = operator.attrgetter("_value_")


def cmd_sweep(cfg: RunConfig) -> int:
    if cfg.case not in ("positive", "flat", "negative", "su2"):
        raise ConfigError(f"sweep case must be positive/flat/negative/su2, got {cfg.case!r}")
    # RunConfig keeps the bounds finite and ordered, so every cell's coupling
    # is valid exactly when the smallest kappa is.
    try:
        ht.HomothetyProblem(case=cfg.case, kappa=cfg.kappa_min)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    kappas = np.linspace(cfg.kappa_min, cfg.kappa_max, cfg.kappa_steps).tolist()
    mus = np.linspace(cfg.mu_min, cfg.mu_max, cfg.mu_steps).tolist()
    tags = ht.sweep_grid(cfg.case, kappas, mus)
    # A Python float's repr is _float_cell's form.  The strings that do not
    # depend on the row are made once per grid, and each line is one
    # concatenation around the row's kappa.
    j_cells = [f"{j}," for j in range(len(mus))]
    mu_cells = [f",{mu!r}," for mu in mus]
    lines = ["i,j,kappa,mu,tag"]
    for i, (kap, row) in enumerate(zip(kappas, tags.tolist())):
        i_cell, kap_cell = f"{i},", repr(kap)
        lines += [
            i_cell + j_cell + kap_cell + mu_cell + name
            for j_cell, mu_cell, name in zip(j_cells, mu_cells, map(_TAG_NAME, row))
        ]
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
    columns = np.array(
        (trajectory.t, g[:, 0, 0], g[:, 0, 1], g[:, 0, 2], g[:, 1, 1], g[:, 1, 2], g[:, 2, 2], trajectory.f)
    ).tolist()
    row_format = _row_format(len(columns))
    lines = ["t,g11,g12,g13,g22,g23,g33,f"]
    lines += [row_format % row for row in zip(*columns)]
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


# The fields the identity suite reads: the chart batch and the invariant rows
# are joined in these alone.
_IDENTITY_FIELDS = ("g", "g_inv", "riemann", "ricci", "scalar", "f", "df",
                    "riemann_tw_sq", "riemann_tw_norm2", "orientation")


def _verify_samples(selected: tuple, trials: int, seed: int) -> dict:
    """Every sample the selected suites read, built once per call in at most
    two batches (the chart samples in one; the identity suite's invariant
    samples and the soliton candidates in the other), each handed to the
    suites as built: the divergence suite reads the chart batch, the soliton
    suite one candidate holding a view of the invariant batch's family rows
    (and their constant-dilaton cases), and the identity suite the chart
    batch joined with the invariant rows in the fields it reads."""
    batches = {}
    if {"identities", "divergence"} & set(selected):
        specs = [cj.random_chart_spec(seed + k, maxwell=bool(k % 2)) for k in range(trials)]
        charts = batches["divergence"] = cj.build_chart_samples(specs)
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
    if args:  # trials >= 1, so only a divergence-only command has none
        built = hg.build_invariant_samples(args)
    if "identities" in selected:
        batches["identities"] = types.SimpleNamespace(**{
            name: np.concatenate((getattr(charts, name), getattr(built, name)[:n_invariant]))
            for name in _IDENTITY_FIELDS
        })
    if "solitons" in selected:
        families = so.SolitonCandidate(built[n_invariant:], np.array(kappas), name="families")
        batches["solitons"] = families, cases
    return batches


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
    kappas = np.random.default_rng(seed).uniform(0.05, 3.0, size=len(charts))
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
    """Argument parser whose usage errors map to the config exit code.

    A word that ``float`` reads as a negative number, exponent, ``-inf`` and
    ``-nan`` included, is a value, not an option (argparse's own pattern
    takes only ``-1`` and ``-1.5``), so ``--s -1e-05`` gives ``s`` the
    value that ``repr`` writes.  No hetflow option looks like a number.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


_NEGATIVE_NUMBER = re.compile(r"^-(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


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


def _parse(argv: list) -> tuple:
    """``(namespace, subparser)`` of ``argv`` under ``hetflow``'s parser, in one pass.

    A first word that names a command goes straight to that command's
    subparser, which is what the top-level parser would do with the rest;
    anything else (no words, ``--help``, an unknown word) goes through the
    top-level parser and its messages.
    """
    parser, subparsers = _build_parser()
    if argv and argv[0] in subparsers:
        ns = subparsers[argv[0]].parse_args(argv[1:])
        ns.command = argv[0]
    else:
        ns = parser.parse_args(argv)
    return ns, subparsers[ns.command]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        cfg = _config_from_args(*_parse(argv))
        return _COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical-domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
