"""The four workloads: seeded CLI inputs and the checks on their outputs.

A workload is a list of :class:`Command` built from the seed alone.  One
round runs every command once, in list order; a run repeats whole rounds.
Each command carries its own check, which reads the command's output text
and returns the problems found (an empty list when the output is correct).
The checks compare against :mod:`oracles` or against properties that hold
exactly, never against a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import oracles
from hetflow import chart_jets as cj
from hetflow import homogeneous as hg
from hetflow import homothety as ht


@dataclass(frozen=True)
class Command:
    argv: tuple  # CLI arguments without ``--output``
    units: float  # work done, in the workload's unit
    check: Callable[[str], list]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what one unit of ``work_per_s`` is
    tail_pct: float  # fixed percentile reported as ``cmd_tail_ms``
    build: Callable[[int], list]

    @property
    def min_commands(self) -> int:
        """Commands a run needs for ten samples beyond the tail percentile."""
        return math.ceil(10.0 / (1.0 - self.tail_pct / 100.0))


# Each workload is a fixed design of commands whose numeric inputs the seed
# moves by up to this share.  The design fixes how much work of each kind a
# round holds (grid sizes, which runs degenerate, which cases collapse), so
# the seed varies the inputs without varying the amount of work.
JITTER = 0.05


def _num(x: float) -> str:
    return repr(float(x))


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt])


def _jitter(rng: np.random.Generator, x: float, rel: float = JITTER) -> float:
    """``x`` moved by a seeded relative amount of at most ``rel``."""
    return float(x) * (1.0 + float(rng.uniform(-rel, rel)))


def _shuffled(rng: np.random.Generator, commands: list) -> list:
    return [commands[k] for k in rng.permutation(len(commands))]


def _csv(text: str) -> tuple[list, list]:
    lines = text.splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# ---------------------------------------------------------------------------
# sweep-map
# ---------------------------------------------------------------------------

# (case, kappa_min, kappa_max, mu_min, mu_max, kappa_steps, mu_steps).  Every
# non-su2 window crosses its case's static curve, where F(1) changes sign;
# the windows range from whole maps to zooms on the curves and poles.  On the
# serial path cells cost 0.1-1.1 ms depending on case and window (negative
# cells are the cheapest), so the grid sizes are set for 0.25-0.4 s per sweep
# on the reference machine: the commands are alike in cost and the latency
# percentiles fall inside one cluster.
SWEEP_DESIGN = (
    ("positive", 0.0, 1.2, 0.0, 2.5, 19, 20),
    ("positive", 0.2, 0.5, 0.9, 1.6, 22, 22),
    ("positive", 0.0, 0.6, 0.5, 3.0, 21, 22),
    ("positive", 0.5, 2.0, 0.0, 2.0, 20, 21),
    ("flat", 0.0, 3.0, 0.0, 3.0, 25, 24),
    ("flat", 0.6, 2.8, 1.2, 2.5, 18, 19),
    ("flat", 0.0, 1.0, 1.5, 3.0, 23, 24),
    ("negative", 0.0, 2.0, 0.0, 2.5, 51, 50),
    ("negative", 0.0, 3.0, 0.1, 0.5, 58, 44),
    ("negative", 0.0, 2.0, 1.5, 2.5, 50, 48),
    ("su2", 0.05, 3.0, 0.0, 2.0, 27, 27),
    ("su2", 0.5, 1.5, 0.0, 3.0, 26, 26),
    ("su2", 0.05, 0.5, 0.0, 1.0, 27, 27),
)
TAGS = {tag.value for tag in ht.BehaviorTag}
# Tags compatible with the sign of F at the start (sigma0 = 1).
TAGS_RISING = {"FiniteTimeCollapse", "EternalPastFiniteFutureDivergent", "EternalRegular"}
TAGS_FALLING = {"FiniteTimeCollapse", "EternalPastDivergentFutureFinite", "EternalRegular"}
# Cells whose |F(1)| is below this share of F's size sit on a static curve to
# within rounding; their tag is not decided by the sign and they are not sampled.
SWEEP_CLEAR = 1e-6


def build_sweep(seed: int) -> list:
    rng = _rng(seed, 1)
    commands = []
    for case, kmin, kmax, mmin, mmax, nk, nm in SWEEP_DESIGN:
        # Bounds move by up to JITTER of the window's extent; kappa stays > 0 for su2.
        dk, dm = JITTER * (kmax - kmin), JITTER * (mmax - mmin)
        kmin = max(kmin + float(rng.uniform(-dk, dk)), kmin if case == "su2" else 0.0)
        kmax += float(rng.uniform(-dk, dk))
        mmin = max(mmin + float(rng.uniform(-dm, dm)), 0.0)
        mmax += float(rng.uniform(-dm, dm))
        argv = ("sweep", "--case", case, "--kappa-min", _num(kmin), "--kappa-max", _num(kmax),
                "--kappa-steps", str(nk), "--mu-min", _num(mmin), "--mu-max", _num(mmax),
                "--mu-steps", str(nm))
        check = partial(check_sweep, case, np.linspace(kmin, kmax, nk),
                        np.linspace(mmin, mmax, nm), int(rng.integers(2**31)))
        commands.append(Command(argv, nk * nm, check))
    return _shuffled(rng, commands)


def _sample_cells(rng, sign, clear) -> list:
    """Two cells astride the static curve (when the window crosses it) and one other."""
    cells = []
    crossings = np.argwhere(sign[:-1, :] * sign[1:, :] < 0)
    if len(crossings):
        i, j = crossings[int(rng.integers(len(crossings)))]
        cells += [(int(i), int(j)), (int(i) + 1, int(j))]
    cells = [c for c in cells if clear[c]]
    candidates = np.argwhere(clear)
    while len(cells) < 3 and len(candidates):
        i, j = candidates[int(rng.integers(len(candidates)))]
        if (int(i), int(j)) not in cells:
            cells.append((int(i), int(j)))
    return cells


def check_sweep(case: str, kappas, mus, sample_seed: int, text: str) -> list:
    header, rows = _csv(text)
    if header != ["i", "j", "kappa", "mu", "tag"]:
        return [f"unexpected header {header}"]
    nk, nm = kappas.size, mus.size
    if len(rows) != nk * nm:
        return [f"{len(rows)} rows for a {nk}x{nm} grid"]
    tags = np.empty((nk, nm), dtype=object)
    for r, row in enumerate(rows):
        i, j = divmod(r, nm)
        if (int(row[0]), int(row[1])) != (i, j):
            return [f"row {r} holds cell {row[:2]}, expected ({i}, {j})"]
        if float(row[2]) != kappas[i] or float(row[3]) != mus[j]:
            return [f"cell ({i}, {j}) has coordinates {row[2:4]}"]
        if row[4] not in TAGS:
            return [f"cell ({i}, {j}) has unknown tag {row[4]!r}"]
        tags[i, j] = row[4]

    problems = []
    k_grid, m_grid = np.meshgrid(kappas, mus, indexing="ij")
    f1 = oracles.reduction_F(case, k_grid, m_grid, 0.0, 1.0)
    clear = np.abs(f1) > SWEEP_CLEAR * oracles.reduction_scale(case, k_grid, m_grid, 0.0)
    sign = np.sign(f1)
    for (i, j), tag in np.ndenumerate(tags):
        if clear[i, j] and tag not in (TAGS_RISING if sign[i, j] > 0 else TAGS_FALLING):
            problems.append(f"cell ({i}, {j}): tag {tag} contradicts sign of F(1) = {f1[i, j]:.3e}")
    for i, j in _sample_cells(np.random.default_rng(sample_seed), sign, clear):
        ref = oracles.trajectory_tag(case, float(kappas[i]), float(mus[j]))
        if ref != tags[i, j]:
            problems.append(f"cell ({i}, {j}) kappa={kappas[i]!r} mu={mus[j]!r}: "
                            f"tag {tags[i, j]}, trajectory gives {ref}")
    return problems


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

VERIFY_COMMANDS = 9
VERIFY_TRIALS = 4
VERIFY_SUITES = ("identities", "divergence", "solitons")
UNIMODULAR = ("r3", "heisenberg", "su2", "sl2r", "e11", "e2")


def build_verify(seed: int) -> list:
    rng = _rng(seed, 2)
    commands = []
    for k in range(VERIFY_COMMANDS):
        cli_seed = int(rng.integers(2**31))
        argv = ("verify", "--suite", "all", "--trials", str(VERIFY_TRIALS), "--seed", str(cli_seed))
        probe = {
            "c_hyperbolic": float(rng.uniform(0.3, 2.0)),
            "c_conformal": float(rng.uniform(0.3, 2.0)),
            "algebra": UNIMODULAR[k % len(UNIMODULAR)],
            "su2_k": float(rng.uniform(0.3, 3.0)),
            "diag": tuple(float(v) for v in rng.uniform(0.5, 2.0, size=3)),
            "f": float(rng.uniform(0.3, 2.0)),
        }
        check = partial(check_verify, cli_seed, probe)
        commands.append(Command(argv, len(VERIFY_SUITES) * VERIFY_TRIALS, check))
    return commands


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def check_verify(cli_seed: int, probe: dict, text: str) -> list:
    payload = json.loads(text)
    problems = []
    if (payload.get("seed"), payload.get("trials")) != (cli_seed, VERIFY_TRIALS):
        problems.append(f"report echoes seed/trials {payload.get('seed')}/{payload.get('trials')}")
    if payload.get("all_pass") is not True:
        problems.append("all_pass is not true")
    if {c["suite"] for c in payload["checks"]} != set(VERIFY_SUITES):
        problems.append("report does not cover every suite")
    for c in payload["checks"]:
        if not (c["pass"] and c["worst"] <= c["tol"]):
            problems.append(f"{c['suite']}/{c['name']}: worst {c['worst']} above tol {c['tol']}")

    # Probes of the two sample builders the suites run, against closed forms.
    c = probe["c_hyperbolic"]
    scal = cj.build_chart_sample(cj.hyperbolic_chart_spec(c)).scalar
    if _rel(scal, -6.0 * c * c) > 1e-12:
        problems.append(f"hyperbolic chart c={c}: scalar {scal}, expected {-6.0 * c * c}")
    c = probe["c_conformal"]
    scal = cj.build_chart_sample(cj.conformal_chart_spec(c)).scalar
    if _rel(scal, -2.0 * c * c) > 1e-12:
        problems.append(f"conformal chart c={c}: scalar {scal}, expected {-2.0 * c * c}")
    name, diag = probe["algebra"], probe["diag"]
    params = {"kappa": probe["su2_k"]} if name == "su2" else {}
    sample = hg.build_invariant_sample(hg.catalog(name, **params), np.diag(diag), probe["f"])
    expected = oracles.milnor_ricci(oracles.MILNOR_LAMBDAS[name](probe["su2_k"]), diag)
    if _rel(sample.ricci, expected) > 1e-12:
        problems.append(f"{name} diag{diag}: Ricci differs from Milnor's formula by "
                        f"{_rel(sample.ricci, expected):.3e}")
    return problems


# ---------------------------------------------------------------------------
# flow-ensemble
# ---------------------------------------------------------------------------

# (algebra, algebra parameter, kappa, f, metric diagonal).  Per algebra: a
# kappa = 0 run and a small-kappa run that reach t_max, and a large-kappa run
# that degenerates first; each keeps its fate under the seed's jitter.
FLOW_DESIGN = (
    ("r3", None, 0.0, 0.4569, (0.5033, 0.7464, 0.8899)),
    ("r3", None, 0.2855, 0.6975, (1.619, 1.188, 0.7351)),
    ("r3", None, 1.816, 1.815, (1.745, 0.565, 1.882)),
    ("heisenberg", None, 0.0, 1.176, (1.898, 1.472, 0.5487)),
    ("heisenberg", None, 0.2548, 0.9624, (0.5589, 1.636, 1.724)),
    ("heisenberg", None, 1.657, 1.133, (0.949, 1.16, 1.028)),
    ("su2", 0.7898, 0.0, 1.975, (1.543, 1.257, 1.54)),
    ("su2", 1.247, 0.2397, 1.306, (1.763, 1.4, 1.743)),
    ("su2", 0.535, 1.221, 0.256, (1.865, 1.489, 1.86)),
    ("sl2r", None, 0.0, 0.2203, (1.183, 0.5089, 1.327)),
    ("sl2r", None, 0.3199, 0.4606, (1.645, 1.783, 1.413)),
    ("sl2r", None, 1.521, 1.936, (0.9743, 1.87, 0.5031)),
    ("e11", None, 0.0, 1.692, (1.73, 1.751, 0.6553)),
    ("e11", None, 0.4893, 1.139, (1.469, 1.858, 0.8198)),
    ("e11", None, 1.745, 1.404, (1.674, 1.568, 1.524)),
    ("e2", None, 0.0, 1.174, (1.916, 1.459, 1.39)),
    ("e2", None, 0.7228, 1.391, (1.177, 1.417, 1.536)),
    ("e2", None, 1.466, 1.375, (0.8825, 1.495, 1.492)),
    ("hyperbolic", 1.287, 0.0, 0.2148, (1.892, 0.7962, 1.066)),
    ("hyperbolic", 0.576, 0.7643, 0.2091, (1.275, 1.224, 1.167)),
    ("hyperbolic", 1.616, 1.628, 0.4419, (0.7241, 0.9038, 1.452)),
)
FLOW_T_MAX = 1.0
FLOW_POINTS = 101
# f sqrt(det g) is conserved by the flow; the integrator carries f as a state
# variable, so it holds only to the solver's tolerance.
FLUX_VOLUME_TOL = 1e-7
OFF_DIAGONAL_TOL = 1e-12
FLOW_RTOL = 1e-10  # the CLI's default --rtol


def build_flow(seed: int) -> list:
    rng = _rng(seed, 3)
    commands = []
    common = ("--t-max", _num(FLOW_T_MAX), "--n-points", str(FLOW_POINTS))
    for name, param, kappa, f0, diag in FLOW_DESIGN:
        diag = [_jitter(rng, d) for d in diag]
        param = ("--algebra-param", _num(_jitter(rng, param))) if param is not None else ()
        argv = ("flow", "--algebra", name, *param, "--kappa", _num(_jitter(rng, kappa)),
                "--f", _num(_jitter(rng, f0)), "--metric-diag", *map(_num, diag), *common)
        commands.append(Command(argv, 1, partial(check_flow, diag, None)))

    # Einstein starts at kappa = 0: g stays s(t) g0 with s' = -2 lam + f0^2 / s^2.
    c, a, f0 = (float(v) for v in (rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.0)))
    diag = [a, a, a]  # hyperbolic: Ric = -2 c^2 I, so lam = -2 c^2 / a
    argv = ("flow", "--algebra", "hyperbolic", "--algebra-param", _num(c), "--kappa", "0.0",
            "--f", _num(f0), "--metric-diag", *map(_num, diag), *common)
    commands.append(Command(argv, 1, partial(check_flow, diag, (-2.0 * c * c / a, f0))))
    k, a = float(rng.uniform(0.3, 0.8)), float(rng.uniform(0.5, 1.0))
    diag = [a, a, a / 4.0]  # su2 with parameter k: round, lam = 1 / (2 k a)
    argv = ("flow", "--algebra", "su2", "--algebra-param", _num(k), "--kappa", "0.0",
            "--f", "0.0", "--metric-diag", *map(_num, diag), *common)
    commands.append(Command(argv, 1, partial(check_flow, diag, (1.0 / (2.0 * k * a), 0.0))))
    return _shuffled(rng, commands)


def _flow_table(text: str) -> np.ndarray:
    header, rows = _csv(text)
    if header != ["t", "g11", "g12", "g13", "g22", "g23", "g33", "f"]:
        raise ValueError(f"unexpected header {header}")
    return np.array([[float(x) for x in row] for row in rows])


def flux_volume_drift(text: str) -> float:
    """Largest relative change of ``f sqrt(det g)`` along one flow CSV (0 when f = 0)."""
    tab = _flow_table(text)
    t, g11, g12, g13, g22, g23, g33, f = tab.T
    det = g11 * (g22 * g33 - g23**2) - g12 * (g12 * g33 - g23 * g13) + g13 * (g12 * g23 - g22 * g13)
    vol = f * np.sqrt(det)
    if vol[0] == 0.0:
        return 0.0
    return float(np.max(np.abs(vol / vol[0] - 1.0)))


def check_flow(diag, einstein, text: str) -> list:
    tab = _flow_table(text)
    t, g11, g12, g13, g22, g23, g33, f = tab.T
    problems = []
    if tab.shape[0] != FLOW_POINTS or t[0] != 0.0 or not np.all(np.diff(t) > 0.0):
        return [f"expected {FLOW_POINTS} rows on increasing times from 0"]
    if (g11[0], g22[0], g33[0]) != tuple(diag):
        problems.append(f"first row {tab[0, 1:7]} is not the start metric {diag}")
    drift = flux_volume_drift(text)
    if drift > FLUX_VOLUME_TOL:
        problems.append(f"f sqrt(det g) drifts by {drift:.3e}")
    off = float(np.max(np.abs([g12, g13, g23])))
    if off > OFF_DIAGONAL_TOL * float(np.max([g11, g22, g33])):
        problems.append(f"diagonal start left the diagonal: |g_ij| up to {off:.3e}")
    if np.any(np.min([g11, g22, g33], axis=0) <= 0.0):
        problems.append("metric entries became non-positive")
    if einstein is not None:
        lam, f0 = einstein
        if f0 == 0.0:
            # s = 1 - 2 lam t reaches the degeneracy threshold when the
            # smallest entry, s * diag[2], is 1e-8; the event time is as
            # accurate as the solver's default relative tolerance.
            t_end = (1.0 - 1e-8 / diag[2]) / (2.0 * lam)
            if abs(t[-1] - t_end) > FLOW_RTOL * t_end:
                problems.append(f"degenerates at t={t[-1]!r}, expected {t_end!r}")
        scale = oracles.einstein_scale(lam, f0, t)
        for col, d in zip((g11, g22, g33), diag):
            err = float(np.max(np.abs(col - scale * d)))
            if err > 1e-8 * max(1.0, float(np.max(np.abs(col)))):
                problems.append(f"Einstein start departs from s(t) g0 by {err:.3e}")
                break
    return problems


# ---------------------------------------------------------------------------
# homothety-runs
# ---------------------------------------------------------------------------

# (case, kappa, mu, s, sigma0); s is read by the general case only.  Per
# case, four starts at sigma0 = 1 (closed forms for flat and su2) and three
# elsewhere, then three more runs that reach t_max for each case but su2
# (every su2 run collapses); 16 of the 47 runs collapse, ending through the
# step-underflow completion, and each run keeps its fate under the seed's
# jitter.  Regular runs take 4-14 ms and collapsing ones 40-90 ms, so with 31
# regular runs the median latency lies inside the regular cluster with a
# margin of 16 % of the commands, and the p95 tail inside the collapsing one.
HOMOTHETY_DESIGN = (
    ("positive", 0.6308, 1.193, 0.0, 1.0),
    ("positive", 0.5239, 1.856, 0.0, 1.29),
    ("positive", 1.621, 0.6375, 0.0, 1.0),
    ("positive", 0.641, 0.5712, 0.0, 0.8721),
    ("positive", 1.058, 0.4594, 0.0, 1.0),
    ("positive", 0.1114, 1.461, 0.0, 1.894),
    ("positive", 1.267, 0.07281, 0.0, 1.0),
    ("positive", 0.05499, 0.611, 0.0, 1.0),
    ("positive", 0.5876, 0.6792, 0.0, 1.92),
    ("positive", 0.2293, 0.8486, 0.0, 1.916),
    ("flat", 0.4548, 1.437, 0.0, 1.0),
    ("flat", 1.91, 1.268, 0.0, 0.8602),
    ("flat", 1.311, 0.7751, 0.0, 1.0),
    ("flat", 1.315, 1.733, 0.0, 1.393),
    ("flat", 0.1348, 0.3195, 0.0, 1.0),
    ("flat", 1.399, 0.2272, 0.0, 0.9252),
    ("flat", 1.9, 1.62, 0.0, 1.0),
    ("flat", 1.517, 0.9823, 0.0, 1.0),
    ("flat", 0.9833, 0.1631, 0.0, 1.096),
    ("flat", 0.3204, 0.2848, 0.0, 0.9687),
    ("negative", 0.001948, 0.3859, 0.0, 1.0),
    ("negative", 0.8387, 1.632, 0.0, 0.5391),
    ("negative", 1.999, 0.5974, 0.0, 1.0),
    ("negative", 0.5663, 1.947, 0.0, 1.554),
    ("negative", 1.179, 1.925, 0.0, 1.0),
    ("negative", 0.6153, 0.1199, 0.0, 0.7685),
    ("negative", 0.5655, 1.661, 0.0, 1.0),
    ("negative", 0.6741, 1.364, 0.0, 1.0),
    ("negative", 1.096, 1.432, 0.0, 1.686),
    ("negative", 1.339, 0.1636, 0.0, 1.321),
    ("su2", 0.9533, 1.555, 0.0, 1.0),
    ("su2", 0.7892, 0.08506, 0.0, 1.412),
    ("su2", 0.3302, 0.1778, 0.0, 1.0),
    ("su2", 1.954, 0.2835, 0.0, 1.009),
    ("su2", 0.5747, 0.1664, 0.0, 1.0),
    ("su2", 0.3492, 0.6506, 0.0, 1.076),
    ("su2", 0.3065, 1.1, 0.0, 1.0),
    ("general", 0.7459, 0.2508, 0.6566, 1.0),
    ("general", 0.07665, 0.8901, 0.2801, 0.9841),
    ("general", 0.9499, 1.827, -0.2381, 1.0),
    ("general", 0.4717, 0.6915, -0.821, 1.198),
    ("general", 0.5846, 0.9889, -0.5374, 1.0),
    ("general", 0.1654, 0.1183, 0.173, 1.138),
    ("general", 1.839, 0.09569, -0.3617, 1.0),
    ("general", 1.536, 0.7918, -0.3738, 1.0),
    ("general", 0.5637, 1.723, -0.8472, 1.483),
    ("general", 0.6412, 1.091, 0.5829, 1.461),
)
HOMOTHETY_T_MAX = 2.0
HOMOTHETY_POINTS = 101
TRAJECTORY_TOL = 1e-6
# Below this sigma a row is near a collapse: the last grid row and the event
# row of a collapsing run hold sigma < 0.03, where |sigma'| exceeds 1e7.
NEAR_COLLAPSE = 0.05


def build_homothety(seed: int) -> list:
    rng = _rng(seed, 4)
    commands = []
    for case, kappa, mu, s, sigma0 in HOMOTHETY_DESIGN:
        kappa, mu, s = _jitter(rng, kappa), _jitter(rng, mu), _jitter(rng, s)
        if sigma0 != 1.0:
            sigma0 = _jitter(rng, sigma0)
        argv = ("homothety", "--case", case, "--kappa", _num(kappa), "--mu", _num(mu),
                *(("--s", _num(s)) if case == "general" else ()),
                "--sigma0", _num(sigma0), "--t-max", _num(HOMOTHETY_T_MAX),
                "--n-points", str(HOMOTHETY_POINTS))
        commands.append(Command(argv, 1, partial(check_homothety, case, kappa, mu, s, sigma0)))
    return _shuffled(rng, commands)


def check_homothety(case, kappa, mu, s, sigma0, text: str) -> list:
    header, rows = _csv(text)
    closed = sigma0 == 1.0 and case in ("flat", "su2")
    if header != ["t", "sigma", "f"] + (["sigma_closed"] if closed else []):
        return [f"unexpected header {header}"]
    if len(rows) < HOMOTHETY_POINTS:
        return [f"only {len(rows)} rows"]
    t = np.array([float(r[0]) for r in rows])
    sigma = np.array([float(r[1]) for r in rows])
    f = np.array([float(r[2]) for r in rows])
    problems = []
    grid = t[:HOMOTHETY_POINTS]
    if grid[0] != 0.0 or not np.all(np.diff(grid) > 0.0):
        problems.append("sample times do not increase from 0")
    mu_eff = 0.0 if case == "su2" else mu
    if _rel(f, mu_eff * sigma**-1.5) > 1e-12:
        problems.append("f column differs from mu sigma^(-3/2)")
    # Each column must lie on the trajectory.  The integrated sigma must be
    # close to our own solution at its time; sigma_closed, where the CSV gives
    # one, must be close to that solution and to sigma.  Near a collapse
    # sigma(t) has unbounded slope and a sigma test is ill conditioned, so
    # there, and only there, a value may instead be close in time at its sigma.
    solution, t_reached = oracles.sigma_solution(case, kappa, mu, s, sigma0, HOMOTHETY_T_MAX)
    for k, row in enumerate(rows):
        columns = [("sigma", float(sigma[k]), [])]
        if closed and row[3]:
            columns.append(("sigma_closed", float(row[3]), [float(sigma[k])]))
        for name, value, others in columns:
            refs = ([float(solution(t[k])[0])] if t[k] <= t_reached else []) + others
            if refs and all(abs(r - value) <= TRAJECTORY_TOL * max(1.0, value) for r in refs):
                continue
            if t[k] <= t_reached and value >= NEAR_COLLAPSE:
                problems.append(f"row {k} (t={row[0]}): {name} {value!r} differs from {refs}")
                continue
            t_ref = oracles.time_to_reach(case, kappa, mu, s, sigma0, value)
            if abs(t_ref - t[k]) > TRAJECTORY_TOL * max(1.0, abs(t[k])):
                problems.append(f"row {k} (t={row[0]}): {name} {value!r} is off the trajectory "
                                f"(reaches it at t={t_ref!r}; sigma at t: {refs})")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-map", "grid cells", 75.0, build_sweep),
        Workload("verify-suites", "suite-trials", 75.0, build_verify),
        Workload("flow-ensemble", "trajectories", 90.0, build_flow),
        Workload("homothety-runs", "trajectories", 95.0, build_homothety),
    )
}
