"""Command-line front end: exit codes, schemas, determinism, atomic output."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetflow import chart_jets as cj
from hetflow import cli
from hetflow import het_flow as hf
from hetflow import homogeneous as hg
from hetflow import homothety as ht
from hetflow import tensor_core as tc


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _read_csv(text):
    rows = list(csv.reader(text.strip().splitlines()))
    return rows[0], rows[1:]


def _cli_subprocess(argv: list, timeout: float) -> subprocess.CompletedProcess:
    """``python -m hetflow.cli argv`` in a fresh interpreter, killed after
    ``timeout`` seconds.  Uninstalled, it finds the package through PYTHONPATH alone."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "hetflow.cli", *argv], capture_output=True, text=True,
                          timeout=timeout, env=env)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_soliton_check_constructor_passes(capsys):
    code, out, _ = _run(capsys, ["soliton-check", "--algebra", "heisenberg", "--kappa", "1.0"])
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "soliton-check"
    assert payload["schema_version"] == 2
    assert "bianchi" not in payload["equations"]
    assert payload["meta"]["f"] == pytest.approx(1.0, rel=1e-14)
    assert all(entry["pass"] for entry in payload["equations"].values())


def test_soliton_check_failure_exits_3(capsys):
    code, out, _ = _run(
        capsys,
        [
            "soliton-check",
            "--algebra",
            "su2",
            "--kappa",
            "1.0",
            "--f",
            "1.0",
            "--metric-diag",
            "1",
            "1",
            "1",
        ],
    )
    assert code == 3
    payload = json.loads(out)
    assert not payload["equations"]["einstein_sym"]["pass"]


def test_unknown_suite_exits_1(capsys):
    code, _, err = _run(capsys, ["verify", "--suite", "nonsense"])
    assert code == 1
    assert "configuration error" in err or "nonsense" in err


def test_verify_has_no_tol_option(capsys):
    # verify's checks carry their own tolerances; a --tol would be ignored
    code, _, err = _run(capsys, ["verify", "--tol", "1e-3"])
    assert code == 1
    assert "configuration error" in err and "--tol" in err


def test_bad_numeric_flag_exits_1(capsys):
    code, _, err = _run(capsys, ["homothety", "--kappa", "not-a-number"])
    assert code == 1
    assert "configuration error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--algebra", "su2", "--rtol", "-1"],
        ["flow", "--algebra", "su2", "--atol=-1e-12"],
        ["homothety", "--case", "flat", "--kappa", "1", "--mu", "1", "--rtol", "0"],
    ],
)
def test_bad_tolerance_exits_1(capsys, argv):
    code, _, err = _run(capsys, argv)
    assert code == 1
    assert "configuration error" in err and "rtol must be positive" in err


def test_flow_non_spd_metric_exits_2(capsys):
    code, _, err = _run(
        capsys,
        ["flow", "--algebra", "r3", "--kappa", "1.0", "--metric-diag", "1", "-1", "1"],
    )
    assert code == 2
    assert "numerical-domain error" in err


def test_homothety_domain_error_exits_1(capsys):
    # su2 case requires a positive coupling: rejected at problem construction
    code, _, err = _run(capsys, ["homothety", "--case", "su2", "--kappa", "0.0"])
    assert code == 1
    assert "configuration error" in err


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------


def test_verify_identities_small_run(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--suite", "identities", "--trials", "6", "--seed", "7"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert payload["suite"] == "identities"
    assert payload["trials"] == 6
    names = {check["name"] for check in payload["checks"]}
    assert names == {
        "curvature_reconstruction",
        "curvature_square_expansion",
        "curvature_norm_expansion",
        "twisted_square_expansion",
        "twisted_norm_expansion",
    }
    for check in payload["checks"]:
        assert check["pass"] is True
        assert check["worst"] <= check["tol"]


def test_verify_builds_each_chart_sample_once_per_command(capsys, monkeypatch):
    built = []
    original = cj.build_chart_samples

    def counting(specs):
        built.extend(spec.seed for spec in specs)
        return original(specs)

    monkeypatch.setattr(cj, "build_chart_samples", counting)
    argv = ["verify", "--suite", "all", "--trials", "4", "--seed", "11"]
    assert _run(capsys, argv)[0] == 0
    assert built == [11, 12, 13, 14]
    # a second command in the same process builds its samples again
    assert _run(capsys, argv)[0] == 0
    assert built == [11, 12, 13, 14] * 2
    built.clear()
    assert _run(capsys, ["verify", "--suite", "solitons", "--trials", "4"])[0] == 0
    assert built == []


def test_metric_inverse_calls_per_command(capsys, count_calls):
    # verify: one batched inverse for the identity suite's 4 invariant samples
    # and the soliton suite's 8 candidates; the flow law at each candidate
    # reads the candidate's own g_inv.  soliton-check: the one inverse its
    # sample makes.
    inverses = count_calls(tc, "metric_inverse")
    assert _run(capsys, ["verify", "--suite", "all", "--trials", "4"])[0] == 0
    assert len(inverses) == 1
    inverses.clear()
    assert _run(capsys, ["soliton-check", "--algebra", "heisenberg", "--kappa", "1.0"])[0] == 0
    assert len(inverses) == 1


def test_verify_suites_read_the_samples_they_were_given(capsys, count_calls, monkeypatch):
    """No suite derives curvature or rebuilds an algebra once the samples exist:
    the 12 catalog calls (4 random invariant starts, 8 soliton candidates) all
    come from _verify_samples."""
    catalogs = count_calls(hg, "catalog")
    curvatures = count_calls(hg, "invariant_curvature")
    at_samples = []
    original = cli._verify_samples

    def recording(*args):
        samples = original(*args)
        at_samples.append(len(catalogs))
        return samples

    monkeypatch.setattr(cli, "_verify_samples", recording)
    assert _run(capsys, ["verify", "--suite", "all", "--trials", "4"])[0] == 0
    assert (at_samples, len(catalogs), len(curvatures)) == ([12], 12, 0)


@pytest.mark.parametrize("trials", [1, 4])
def test_verify_suites_read_the_restacked_samples_bit_for_bit(trials, split_and_stacked, monkeypatch):
    """Each suite reads, in every field it reads, the bytes it read when the
    batches were split into samples and stacked again."""
    split, stacked = split_and_stacked
    built = {}
    for module, name in ((cj, "build_chart_samples"), (hg, "build_invariant_samples")):
        def keeping(arg, original=getattr(module, name), name=name):
            built[name] = original(arg)
            return built[name]
        monkeypatch.setattr(module, name, keeping)
    batches = cli._verify_samples(("identities", "divergence", "solitons"), trials, 23)
    charts, invariants = split(built["build_chart_samples"]), split(built["build_invariant_samples"])
    families, cases = batches["solitons"]
    assert cases == [1, 3] * trials
    references = (
        (batches["identities"], stacked(charts + invariants[:trials]), cli._IDENTITY_FIELDS),
        (batches["divergence"], stacked(charts), (*cj._FIELDS, "orientation")),
        (families.sample, stacked(invariants[trials:]), (*cj._FIELDS, "orientation")),
    )
    for batch, reference, names in references:
        for name in names:
            x, y = getattr(batch, name), getattr(reference, name)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


@pytest.mark.parametrize("trials", [1, 4])
def test_verify_assembles_its_samples_in_two_passes(capsys, count_calls, trials):
    """One assembly for the chart samples, one for the invariant samples and
    soliton candidates, whatever the number of trials."""
    chart_passes = count_calls(cj, "_assemble_sample")
    invariant_passes = count_calls(hg, "_assemble_sample")
    assert _run(capsys, ["verify", "--suite", "all", "--trials", str(trials)])[0] == 0
    assert (len(chart_passes), len(invariant_passes)) == (1, 1)


def test_verify_suites_contract_once_per_batch(capsys, count_calls):
    """The suites run each check once over their stacked samples, so a
    command's einsum calls (suites and assembly alike) do not grow with
    the number of trials."""
    counts = []
    for trials in (1, 4):
        einsums = count_calls(np, "einsum")
        assert _run(capsys, ["verify", "--suite", "all", "--trials", str(trials)])[0] == 0
        counts.append(len(einsums))
    assert counts[0] == counts[1]


def test_verify_solitons_suite(capsys):
    code, out, _ = _run(
        capsys, ["verify", "--suite", "solitons", "--trials", "5", "--seed", "3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True


# ---------------------------------------------------------------------------
# homothety command
# ---------------------------------------------------------------------------


def test_homothety_static_flat_profile(capsys, tmp_path):
    out_path = tmp_path / "static.csv"
    code, _, _ = _run(
        capsys,
        [
            "homothety",
            "--case",
            "flat",
            "--kappa",
            "4.0",
            "--mu",
            "1.0",
            "--t-max",
            "2.0",
            "--n-points",
            "9",
            "--output",
            str(out_path),
        ],
    )
    assert code == 0
    header, rows = _read_csv(out_path.read_text())
    assert header == ["t", "sigma", "f", "sigma_closed"]
    for row in rows:
        assert float(row[1]) == pytest.approx(1.0, abs=1e-12)
        assert float(row[2]) == pytest.approx(1.0, abs=1e-12)


def test_homothety_flat_closed_form_column(capsys):
    code, out, _ = _run(
        capsys,
        [
            "homothety",
            "--case",
            "flat",
            "--kappa",
            "1.0",
            "--mu",
            "0.9",
            "--t-max",
            "1.0",
            "--n-points",
            "11",
        ],
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header[-1] == "sigma_closed"
    for row in rows:
        if row[3]:
            assert float(row[1]) == pytest.approx(float(row[3]), abs=1e-6)


def test_homothety_su2_reports_collapse_event(capsys):
    kappa = 1.0
    code, out, _ = _run(
        capsys,
        [
            "homothety",
            "--case",
            "su2",
            "--kappa",
            str(kappa),
            "--t-max",
            "1.0",
            "--n-points",
            "11",
        ],
    )
    assert code == 0
    header, rows = _read_csv(out)
    t_max = ht.su2_collapse_time(kappa)
    assert float(rows[-1][0]) == pytest.approx(t_max, abs=1e-6)
    assert float(rows[-1][1]) <= 1e-6


def test_homothety_collapse_rows_have_a_closed_form_at_the_branch_point(capsys):
    # The event time lies 3.25e-12 past t_max (inside rtol), which puts the
    # Lambert-W argument 4.6e-12 of 1/e past -1/e: still the branch point.
    argv = ["homothety", "--case", "su2", "--kappa", "0.9425059991926784",
            "--t-max", "10", "--n-points", "101"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    header, rows = _read_csv(out)
    assert float(rows[-1][0]) > ht.su2_collapse_time(0.9425059991926784)
    assert [row[3] for row in rows[-2:]] == ["0.0", "0.0"]


def test_homothety_event_row_is_a_point_of_the_trajectory(capsys):
    # A steep collapse: the event row is the threshold crossing, and the last
    # sample of the grid is that same point.
    kappa, mu = 1.6707, 1.6234
    argv = ["homothety", "--case", "flat", "--kappa", str(kappa), "--mu", str(mu),
            "--t-max", "2.0", "--n-points", "11"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    header, rows = _read_csv(out)
    assert len(rows) == 12
    assert rows[-1][:2] == rows[-2][:2]
    t, sigma, f = (float(x) for x in rows[-1][:3])
    assert sigma == pytest.approx(ht.EPS_COLLAPSE, rel=1e-6)
    assert f == pytest.approx(float(rows[-2][2]), rel=1e-15)
    assert f == pytest.approx(mu * sigma**-1.5, rel=1e-15)
    assert float(rows[-3][0]) < t


# ---------------------------------------------------------------------------
# flow command and scale extraction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("width", [3, 5, 8])
def test_a_row_format_is_the_join_of_each_cells_repr(width):
    # flow and homothety format a row of Python floats with one %r string
    cells = [-0.0, 5e-324, 1e-300, 1e308, 0.1, 1.0, -2.5e-7, 1e16]
    for start in range(len(cells)):
        row = tuple((cells[start:] + cells[:start])[:width])
        assert cli._row_format(width) % row == ",".join(map(repr, row)) == ",".join(map(cli._float_cell, row))


def test_flow_soliton_start_is_constant(capsys):
    code, out, _ = _run(
        capsys,
        [
            "flow",
            "--algebra",
            "heisenberg",
            "--kappa",
            "1.0",
            "--f",
            "1.0",
            "--metric-diag",
            "1",
            "1",
            "1",
            "--t-max",
            "1.0",
            "--n-points",
            "5",
        ],
    )
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["t", "g11", "g12", "g13", "g22", "g23", "g33", "f"]
    for row in rows:
        for col, expected in zip(row[1:], (1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0)):
            assert float(col) == pytest.approx(expected, abs=1e-9)


def test_no_flow_command_reaches_the_generic_curvature_chain(capsys, monkeypatch):
    # `flow` starts from a diagonal metric: the algebras in bracket normal
    # form take the diagonal path, hyperbolic the Einstein path.
    def refuse(*args):
        raise AssertionError("the generic curvature chain was reached")

    monkeypatch.setattr(hf, "_generic_system", refuse)
    for name in hg.CATALOG_NAMES:
        code, out, err = _run(capsys, ["flow", "--algebra", name, "--kappa", "0.5", "--f", "0.8",
                                       "--metric-diag", "1.2", "0.9", "1.1", "--t-max", "0.2",
                                       "--n-points", "5"])
        assert (code, err) == (0, ""), name
        assert len(_read_csv(out)[1]) == 5


def test_flow_scale_extraction_matches_homothety(capsys):
    # flat-base conformal family: the tensor flow and the scalar reduction
    # describe the same trajectory, so g11 from `flow` must reproduce the
    # sigma column from `homothety`.
    kappa, mu = 1.0, 0.9
    args_common = ["--t-max", "1.5", "--n-points", "13"]
    code, flow_out, _ = _run(
        capsys,
        ["flow", "--algebra", "r3", "--kappa", str(kappa), "--f", str(mu)] + args_common,
    )
    assert code == 0
    code, sigma_out, _ = _run(
        capsys,
        ["homothety", "--case", "flat", "--kappa", str(kappa), "--mu", str(mu)]
        + args_common,
    )
    assert code == 0
    _, flow_rows = _read_csv(flow_out)
    _, sigma_rows = _read_csv(sigma_out)
    assert len(flow_rows) == 13
    for frow, srow in zip(flow_rows, sigma_rows):
        assert float(frow[0]) == pytest.approx(float(srow[0]), abs=1e-12)
        assert float(frow[1]) == pytest.approx(float(srow[1]), abs=1e-6)  # sigma
        assert float(frow[7]) == pytest.approx(float(srow[2]), abs=1e-6)  # f
        # conformal family: off-diagonal zero, diagonal equal
        assert float(frow[2]) == pytest.approx(0.0, abs=1e-10)
        assert float(frow[4]) == pytest.approx(float(frow[1]), abs=1e-9)


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------

SWEEP_ARGS = [
    "sweep",
    "--case",
    "negative",
    "--kappa-min",
    "0.0",
    "--kappa-max",
    "1.0",
    "--kappa-steps",
    "3",
    "--mu-min",
    "0.0",
    "--mu-max",
    "2.0",
    "--mu-steps",
    "3",
]


def test_sweep_schema_and_grid_order(capsys):
    code, out, _ = _run(capsys, SWEEP_ARGS)
    assert code == 0
    header, rows = _read_csv(out)
    assert header == ["i", "j", "kappa", "mu", "tag"]
    assert len(rows) == 9
    kappas = np.linspace(0.0, 1.0, 3)
    mus = np.linspace(0.0, 2.0, 3)
    for row in rows:
        i, j = int(row[0]), int(row[1])
        assert float(row[2]) == pytest.approx(kappas[i], abs=1e-15)
        assert float(row[3]) == pytest.approx(mus[j], abs=1e-15)
        assert row[4]  # tag is a nonempty enum value
    assert [(int(r[0]), int(r[1])) for r in rows] == [
        (i, j) for i in range(3) for j in range(3)
    ]


def test_sweep_deterministic_across_thread_counts(capsys, tmp_path):
    # The sweep runs in one thread and reads no thread setting: repeated runs
    # write the same bytes.
    outputs = []
    for k in range(3):
        path = tmp_path / f"sweep_{k}.csv"
        code, _, _ = _run(capsys, SWEEP_ARGS + ["--output", str(path)])
        assert code == 0
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_sweep_csv_matches_scalar_classify(capsys):
    argv = ["sweep", "--case", "positive", "--kappa-min", "0.0", "--kappa-max", "3.0",
            "--kappa-steps", "7", "--mu-min", "0.0", "--mu-max", "2.5", "--mu-steps", "6"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    lines = ["i,j,kappa,mu,tag"]
    for i, kap in enumerate(np.linspace(0.0, 3.0, 7)):
        for j, mu in enumerate(np.linspace(0.0, 2.5, 6)):
            tag = ht.classify("positive", float(kap), float(mu)).tag.value
            lines.append(f"{i},{j},{float(kap)!r},{float(mu)!r},{tag}")
    assert out == "\n".join(lines) + "\n"


def _sweep_text_per_cell(case, kappa_min, kappa_max, kappa_steps, mu_min, mu_max, mu_steps):
    """The sweep CSV built cell by cell: one f-string per cell, its tag's
    string looked up by member, every float through ``cli._float_cell``."""
    kappas = np.linspace(kappa_min, kappa_max, kappa_steps)
    mus = np.linspace(mu_min, mu_max, mu_steps)
    tags = ht.sweep_grid(case, kappas, mus)
    mu_cells = [cli._float_cell(mu) for mu in mus]
    names = {tag: tag.value for tag in ht.BehaviorTag}
    lines = ["i,j,kappa,mu,tag"]
    for i, (kap, row) in enumerate(zip(kappas, tags)):
        kap_cell = cli._float_cell(kap)
        for j, (mu_cell, tag) in enumerate(zip(mu_cells, row)):
            lines.append(f"{i},{j},{kap_cell},{mu_cell},{names[tag]}")
    return "\n".join(lines) + "\n"


def _outcome(fn, *args):
    """What ``fn(*args)`` gives: its value, or its exception's type and text."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def _sweep_text(case, kappa_min, kappa_max, kappa_steps, mu_min, mu_max, mu_steps):
    cfg = cli.RunConfig(command="sweep", case=case, kappa_min=kappa_min, kappa_max=kappa_max,
                        kappa_steps=kappa_steps, mu_min=mu_min, mu_max=mu_max, mu_steps=mu_steps)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.cmd_sweep(cfg) == 0
    return out.getvalue()


_MU_THRESHOLD = math.sqrt(ht.MU_THRESHOLD_CUBIC_SQ)
_BOUNDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-300, 0.5, 1.5, _MU_THRESHOLD, 1e150, 1e300]),
    st.floats(0.0, 10.0),
)


# Grids that hold, between them, all six tags: Static on the positive case's
# static curve, Unresolved at its cubic threshold.
_EVERY_TAG_GRIDS = [
    ("positive", [0.0, 2.0 * ht.kappa_crit_p(1.5)], [1.5, 1.5], (3, 1)),
    ("positive", [0.0, 8.0], [0.0, 2.0 * _MU_THRESHOLD], (17, 9)),
    ("positive", [0.0, 0.2], [0.0, 10.0], (21, 21)),
    ("flat", [0.0, 5.0], [0.0, 4.0], (41, 41)),
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["positive", "flat", "negative", "su2"]),
    st.tuples(_BOUNDS, _BOUNDS).map(sorted),
    st.tuples(_BOUNDS, _BOUNDS, st.booleans()).map(lambda t: sorted([-t[0], t[1]] if t[2] else [t[0], t[1]])),
    st.sampled_from([(1, 1), (1, 7), (7, 1), (3, 4), (12, 5)]),
)
@example("negative", [0.0, 1.0], [-0.0, 2.0], (3, 3))
def test_sweep_csv_is_the_per_cell_loops_bytes(case, kappa_bounds, mu_bounds, steps):
    if case == "su2" and kappa_bounds[0] <= 0.0:
        kappa_bounds = [0.25, max(kappa_bounds[1], 0.25)]
    args = (case, kappa_bounds[0], kappa_bounds[1], steps[0], mu_bounds[0], mu_bounds[1], steps[1])
    assert _outcome(_sweep_text, *args) == _outcome(_sweep_text_per_cell, *args)


for _grid in _EVERY_TAG_GRIDS:
    test_sweep_csv_is_the_per_cell_loops_bytes = example(*_grid)(test_sweep_csv_is_the_per_cell_loops_bytes)


def test_the_sweep_byte_examples_hold_every_tag():
    seen = set()
    for case, (k0, k1), (m0, m1), (nk, nm) in _EVERY_TAG_GRIDS:
        seen |= {line.rsplit(",", 1)[1] for line in _sweep_text(case, k0, k1, nk, m0, m1, nm).splitlines()[1:]}
    assert seen == {tag.value for tag in ht.BehaviorTag}


def _sweep_argv(case, kappa_min, mu_max):
    return ["sweep", "--case", case, "--kappa-min", kappa_min, "--kappa-max", "1.0",
            "--kappa-steps", "3", "--mu-min", "0.0", "--mu-max", mu_max, "--mu-steps", "2"]


@pytest.mark.parametrize(
    "case, kappa_min, message",
    [
        ("negative", "-1.0", "kappa must be a non-negative real"),
        ("su2", "0.0", "the SU(2) reduction requires kappa > 0"),
    ],
)
def test_sweep_invalid_coupling_exits_1(capsys, case, kappa_min, message):
    # the same couplings are configuration errors for `homothety`
    code, out, err = _run(capsys, _sweep_argv(case, kappa_min, "1.0"))
    assert code == 1
    assert out == ""
    assert "configuration error" in err and message in err


@pytest.mark.parametrize(
    "case, kappa_min, mu_max, message",
    [
        ("positive", "0.0", "1e200", "overflow"),
    ],
)
def test_sweep_domain_error_exits_2(capsys, case, kappa_min, mu_max, message):
    code, out, err = _run(capsys, _sweep_argv(case, kappa_min, mu_max))
    assert code == 2
    assert out == ""
    assert "numerical-domain error" in err and message in err


def test_homothety_overflowing_coefficients_exit_2(capsys):
    code, _, err = _run(capsys, ["homothety", "--case", "flat", "--kappa", "1.0", "--mu", "1e200"])
    assert code == 2
    assert "overflow" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["soliton-check", "--algebra", "heisenberg", "--kappa", "1e-320"], "1/kappa overflows"),
        (["flow", "--algebra", "hyperbolic", "--algebra-param", "1e200", "--kappa", "1"],
         "K0 = l.g0^-1.l is not finite"),
        (["soliton-check", "--algebra", "hyperbolic", "--kappa", "1e-320"], "coupling kappa 1e-320 is too small"),
        # 1/kappa and 3/kappa are finite, the geometry built from them is not
        (["soliton-check", "--algebra", "heisenberg", "--kappa", "2e-308"], "coupling kappa 2e-308 is too small"),
        (["soliton-check", "--algebra", "hyperbolic", "--kappa", "2e-308"], "coupling kappa 2e-308 is too small"),
    ],
)
def test_overflowing_inputs_exit_2_without_a_warning(capsys, argv, message):
    # pytest turns a RuntimeWarning into an error, so an overflow on the way fails here
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert "numerical-domain error" in err and message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--t-max", "1e308"],  # heisenberg, kappa = f = 1: Milnor's rhs is exactly 0
        ["flow", "--algebra", "r3", "--f", "0", "--t-max", "1e308"],
        ["flow", "--t-max", "1e200"],
        ["flow", "--t-max", "1e160"],
    ],
)
def test_a_flow_over_a_long_span_ends_within_seconds(argv):
    # A trial step past the largest double was retried forever, and near 1e200
    # the secant of the span-end root overflowed, so every sample was NaN.
    proc = _cli_subprocess(argv, timeout=60)
    if argv[-1] == "1e308":
        assert proc.returncode == 2 and proc.stdout == ""
        assert "numerical-domain error" in proc.stderr and "past the largest double" in proc.stderr
        return
    assert proc.returncode == 0, proc.stderr
    _, rows = _read_csv(proc.stdout)
    assert len(rows) == 201 and float(rows[-1][0]) == float(argv[-1])
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)


# ---------------------------------------------------------------------------
# config files and atomic output
# ---------------------------------------------------------------------------


def test_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"case": "flat", "kappa": 4.0, "mu": 2.0, "n_points": 5}))
    # flag --mu 1.0 overrides config mu=2.0: kappa mu^2 = 4 is static
    code, out, _ = _run(
        capsys, ["homothety", "--config", str(config), "--mu", "1.0", "--t-max", "1.0"]
    )
    assert code == 0
    _, rows = _read_csv(out)
    assert len(rows) == 5
    for row in rows:
        assert float(row[1]) == pytest.approx(1.0, abs=1e-12)


def test_malformed_config_exits_1_without_output(capsys, tmp_path):
    config = tmp_path / "broken.json"
    config.write_text("{not json")
    out_path = tmp_path / "never.csv"
    code, _, err = _run(
        capsys, ["homothety", "--config", str(config), "--output", str(out_path)]
    )
    assert code == 1
    assert "configuration error" in err
    assert not out_path.exists()


def test_unknown_config_key_rejected(capsys, tmp_path):
    config = tmp_path / "extra.json"
    config.write_text(json.dumps({"case": "flat", "quux": 1}))
    code, _, err = _run(capsys, ["homothety", "--config", str(config)])
    assert code == 1
    assert "quux" in err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["homothety", "--case", "flat", "--kappa", "1", "--mu", "1"], {"tol": 1e-3}),
        (["verify", "--suite", "solitons", "--trials", "2"], {"tol": 1e-3}),
        (["flow", "--algebra", "su2", "--t-max", "0.1", "--seed", "1"], None),
        (["sweep", "--case", "flat", "--kappa-steps", "2", "--mu-steps", "2"], {"seed": 3}),
    ],
)
def test_config_key_the_command_never_reads_rejected(capsys, tmp_path, argv, config):
    # tol and seed are RunConfig fields, but only soliton-check has a --tol
    # option and only verify a --seed option.
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, out, err = _run(capsys, argv)
    assert code == 1
    assert out == ""
    key = "seed" if config is None else next(iter(config))
    assert "configuration error" in err and key in err


@pytest.mark.parametrize(
    "argv, config, key",
    [
        (["homothety"], {"n_points": 1e3}, "n_points"),
        (["homothety"], {"n_points": True}, "n_points"),
        (["sweep"], {"kappa_steps": 2.5}, "kappa_steps"),
        (["sweep"], {"mu_steps": "3"}, "mu_steps"),
        (["verify", "--suite", "divergence"], {"trials": 2.5}, "trials"),
        (["verify", "--suite", "divergence"], {"seed": 1.5}, "seed"),
        (["homothety"], {"kappa": "x"}, "kappa"),
        (["homothety"], {"kappa": 10**400}, "kappa"),
        (["homothety"], {"kappa": True}, "kappa"),
        (["homothety"], {"mu": None}, "mu"),
        (["sweep"], {"mu_max": [1.0]}, "mu_max"),
        (["soliton-check"], {"tol": "1e-3"}, "tol"),
        (["flow"], {"f": False}, "f"),
        (["flow"], {"metric_diag": 5}, "metric_diag"),
        (["flow"], {"metric_diag": [1, "a", 1]}, "metric_diag"),
        (["flow"], {"metric_diag": [1, 1]}, "metric_diag"),
        (["homothety"], {"case": 3}, "case"),
        (["sweep"], {"output": 5}, "output"),
    ],
)
def test_config_value_of_the_wrong_type_is_a_configuration_error(capsys, tmp_path, argv, config, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = _run(capsys, [*argv, "--config", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("configuration error") and key in err


def test_config_numbers_are_stored_as_python_numbers(capsys, tmp_path):
    # An integer coupling is the float the same flag would give, so the two
    # write the same bytes.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"case": "flat", "kappa": 2, "mu": 1, "n_points": 7}))
    by_config = _run(capsys, ["homothety", "--config", str(path)])
    by_flags = _run(capsys, ["homothety", "--case", "flat", "--kappa", "2.0", "--mu", "1.0", "--n-points", "7"])
    assert by_config == by_flags and by_config[0] == 0
    cfg = cli.RunConfig(command="sweep", kappa_min=np.float32(0.5), kappa_steps=np.int64(3))
    assert type(cfg.kappa_min) is float and type(cfg.kappa_steps) is int


# The float options of every command, with the words each must read as a value.
_FLOAT_OPTIONS = [
    (command, action.option_strings[0], action.dest, action.nargs)
    for command, sub in cli._build_parser()[1].items()
    for action in sub._actions
    if action.type is float
]


@pytest.mark.parametrize("command, option, dest, nargs", _FLOAT_OPTIONS)
@pytest.mark.parametrize("word", ["-1e-05", "-2E3", "-1.5e+300", "-1.", "-.5", "-7"])
def test_a_negative_number_with_an_exponent_is_a_value(command, option, dest, nargs, word):
    ns, _ = cli._parse([command, option, *[word] * (nargs or 1)])
    assert getattr(ns, dest) == (float(word) if nargs is None else [float(word)] * nargs)


@pytest.mark.parametrize("word", ["-inf", "-nan", "-Infinity", "-NaN"])
def test_a_negative_non_finite_value_reaches_the_finiteness_check(capsys, word):
    code, out, err = _run(capsys, ["homothety", "--case", "general", "--kappa", "0.5", "--s", word])
    assert (code, out) == (1, "")
    assert "configuration error: s must be finite" in err


def test_a_value_hetflow_prints_can_be_passed_back(capsys):
    code, out, _ = _run(capsys, ["homothety", "--case", "general", "--kappa", "0.5", "--s", "-1e-05",
                                 "--mu", "-2E-3", "--t-max", "0.1", "--n-points", "3"])
    assert code == 0
    assert out == _run(capsys, ["homothety", "--case", "general", "--kappa", "0.5", "--s=-1e-05",
                                "--mu=-0.002", "--t-max", "0.1", "--n-points", "3"])[1]


def _outcome_of_main(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as stop:
        code = ("SystemExit", stop.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_top_level(argv):
    parser, subparsers = cli._build_parser()
    ns = parser.parse_args(argv)
    return ns, subparsers[ns.command]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["-h"],
        ["bogus"],
        ["--bogus"],
        ["sweep", "--help"],
        ["sweep", "--bogus"],
        ["sweep", "--kappa-steps"],
        ["sweep", "--case", "flat", "--kappa-steps", "2", "--kappa-steps", "3", "--mu-steps", "2"],
        ["sweep", "--case", "flat", "--kappa-st", "2", "--mu-steps", "2"],
        ["sweep", "extra"],
        ["verify", "--suite", "divergence", "--trials", "2", "--seed", "-1"],
        ["homothety", "--case", "general", "--kappa", "0.5", "--s", "-1e-05", "--n-points", "3"],
        ["flow", "--metric-diag", "1", "2"],
    ],
)
def test_direct_dispatch_matches_the_top_level_parser(capsys, monkeypatch, argv):
    direct = _outcome_of_main(capsys, argv)
    direct_ns = cli._parse(argv) if direct[0] == 0 else None
    monkeypatch.setattr(cli, "_parse", _parse_top_level)
    assert _outcome_of_main(capsys, argv) == direct
    if direct_ns is not None:
        assert vars(_parse_top_level(argv)[0]) == vars(direct_ns[0])


def test_atomic_write_leaves_no_part_file_when_a_write_fails(tmp_path, monkeypatch):
    def failing(fd, data):
        raise OSError(28, "No space left on device")

    target = tmp_path / "out.csv"
    with monkeypatch.context() as patch:
        patch.setattr(cli.os, "write", failing)
        with pytest.raises(OSError, match="No space left"):
            cli._atomic_write(str(target), "a,b\n1,2\n")
    assert list(tmp_path.iterdir()) == []


def test_atomic_write_finishes_a_short_write(tmp_path, monkeypatch):
    real_write, sizes = os.write, []

    def short(fd, data):
        sizes.append(len(data))
        return real_write(fd, bytes(data[:7]))

    text = "".join(f"{k},{k * 0.1!r}\n" for k in range(40))
    target = tmp_path / "out.csv"
    with monkeypatch.context() as patch:
        patch.setattr(cli.os, "write", short)
        cli._atomic_write(str(target), text)
    assert target.read_text() == text
    assert len(sizes) == -(-len(text) // 7)
    assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]


def test_atomic_write_tries_another_name_when_one_exists(tmp_path, monkeypatch):
    names = iter([b"\x00" * 8, b"\x00" * 8, b"\x01" * 8])
    monkeypatch.setattr(cli.os, "urandom", lambda n: next(names))
    (tmp_path / ".hetflow-0000000000000000.part").write_text("someone else's")
    cli._atomic_write(str(tmp_path / "out.csv"), "x\n")
    assert (tmp_path / "out.csv").read_text() == "x\n"
    assert (tmp_path / ".hetflow-0000000000000000.part").read_text() == "someone else's"
    assert sorted(path.name for path in tmp_path.iterdir()) == [".hetflow-0000000000000000.part", "out.csv"]


def test_output_reruns_are_byte_identical(capsys, tmp_path):
    args = ["homothety", "--case", "negative", "--kappa", "0.5", "--mu", "0.3"]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = _run(capsys, args + ["--output", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640), (0o077, 0o600)])
def test_output_file_gets_the_mode_of_a_plain_open(capsys, tmp_path, umask, mode):
    # The temporary file mkstemp makes is 0600; the renamed output is not.
    previous = os.umask(umask)
    try:
        argv = ["sweep", "--kappa-steps", "2", "--mu-steps", "2", "--output", str(tmp_path / "t.csv")]
        code, _, _ = _run(capsys, argv)
        with open(tmp_path / "plain.csv", "w"):
            pass
    finally:
        os.umask(previous)
    assert code == 0
    assert (tmp_path / "t.csv").stat().st_mode & 0o777 == mode
    assert (tmp_path / "plain.csv").stat().st_mode & 0o777 == mode


def test_one_parser_serves_every_command_of_a_process(capsys):
    # The parser is built once per process; each command parses as it would
    # in a process of its own, after a command that failed too.
    commands = [
        ["sweep", "--case", "flat", "--kappa-steps", "3", "--mu-steps", "3"],
        ["homothety", "--case", "flat", "--kappa", "-1"],
        ["verify", "--suite", "identities", "--trials", "2", "--seed", "5"],
        ["homothety", "--case", "negative", "--kappa", "0.5", "--mu", "0.3", "--n-points", "11"],
    ]
    alone = []
    for argv in commands:
        cli._build_parser.cache_clear()
        alone.append(_run(capsys, argv))
    assert alone[1][0] == 1 and "kappa" in alone[1][2]
    cli._build_parser.cache_clear()
    assert [_run(capsys, argv) for argv in commands] == alone
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(commands) - 1)


def test_failed_command_leaves_no_partial_file(capsys, tmp_path):
    out_path = tmp_path / "missing.csv"
    code, _, _ = _run(
        capsys,
        [
            "flow",
            "--algebra",
            "r3",
            "--kappa",
            "1.0",
            "--metric-diag",
            "1",
            "-1",
            "1",
            "--output",
            str(out_path),
        ],
    )
    assert code == 2
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------


def test_console_script_roundtrip():
    proc = _cli_subprocess(["verify", "--suite", "divergence", "--trials", "3", "--seed", "1"], timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""  # no runpy warning that hetflow.cli was imported before it ran
    payload = json.loads(proc.stdout)
    assert payload["all_pass"] is True
    assert payload["checks"][0]["name"].startswith("div_")
