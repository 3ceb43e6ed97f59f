"""Smoke test: the experiment-script commands of README.md run and conclude.

Each command runs in this process through ``runpy``, with ``sys.argv`` set
as the shell would set it, and must exit 0 with its expected last line.
``scripts/bench_pairs.py``'s summary step is also checked on canned run
records, so no test runs a benchmark.
"""

import hashlib
import json
import runpy
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# README command -> text its last line of standard output must contain.
CONCLUSIONS = {
    "scripts/behavior_portrait.py --case positive --kappa-max 0.6": "40,40,0.6,2,",
    "scripts/soliton_audit.py --kappas 0.5 1.0 2.0": "(expected: the constant 4.0)",
    "scripts/flow_vs_scale_reduction.py --geometry flat --kappa 1.0 --mu 0.9":
        "the tensor flow stays in the conformal family",
    "scripts/flow_vs_scale_reduction.py --geometry su2 --kappa 1.0":
        "the tensor flow leaves the conformal family",
    "scripts/output_digests.py --seeds 1": "92 outputs",
    "scripts/bench_pairs.py --parent ../hetflow-parent --change . --seed 2801 --dry-run": "80 runs",
}


def test_readme_lists_these_script_commands():
    readme = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    commands = [line.removeprefix("python3 ") for line in readme if line.startswith("python3 scripts/")]
    assert commands == list(CONCLUSIONS)


@pytest.mark.parametrize("command", list(CONCLUSIONS))
def test_readme_script_command_concludes(command, monkeypatch, capsys):
    argv = shlex.split(command)
    monkeypatch.setattr(sys, "argv", argv)
    monkeypatch.setattr(sys, "path", [*sys.path])  # a script may put its imports' directories first
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
    assert stop.value.code == 0
    last = capsys.readouterr().out.rstrip("\n").splitlines()[-1]
    assert CONCLUSIONS[command] in last


def test_output_digests_dump_holds_each_hashed_output(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "path", [*sys.path])  # the script puts its imports' directories first
    digests = runpy.run_path(str(ROOT / "scripts" / "output_digests.py"))
    assert digests["main"](["--seeds", "1", "--dump", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "92 outputs"
    kept = 0
    for line in lines[:-1]:
        key, _, digest = line.split()
        path = tmp_path / f"{key}.out"
        if digest == "-":
            assert not path.exists()
            continue
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, key
        kept += 1
    assert kept == len(list(tmp_path.rglob("*.out"))) > 0


BENCH_PAIRS = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))


def _result(run_s, work_per_s, attempted=100, failed=0, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"}, "work_per_s": {"value": work_per_s, "unit": "ops/s"}}}


def test_bench_pairs_summarises_canned_runs():
    end_to_end = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
                  {"name": "work_per_s", "unit": "ops/s", "better": "higher", "bound": 0.25}]
    orders = [BENCH_PAIRS["pair_order"](k) for k in range(4)]
    assert orders == [("parent", "change"), ("change", "parent")] * 2
    first = [order[0] for order in orders]
    results = {
        "parent": [_result(0.10, 200.0), _result(0.12, 180.0), _result(0.11, 190.0), _result(0.13, 170.0)],
        "change": [_result(0.08, 250.0), _result(0.13, 170.0, attempted=90, failed=2),
                   _result(0.09, 230.0), _result(0.10, 210.0, correct=False)],
    }
    entry = BENCH_PAIRS["summarise_workload"]([7, 8, 9, 10], first, results, end_to_end)
    assert (entry["seeds"], entry["pairs"], entry["first"]) == ([7, 8, 9, 10], 4, first)
    assert entry["runs"] == {"parent": {"correct": True, "attempted": 400, "failed": 0},
                             "change": {"correct": False, "attempted": 390, "failed": 2}}
    run_s = entry["metrics"]["run_s"]
    assert run_s["parent"] == {"median": 0.115, "runs": [0.1, 0.12, 0.11, 0.13], "q1": 0.1075, "q3": 0.1225}
    assert run_s["change"]["median"] == 0.095
    assert run_s["pair_ratios"] == [0.8, 1.0833, 0.8182, 0.7692]
    assert run_s["pair_ratio_median_by_first"] == {"parent": 0.8091, "change": 0.9263}
    assert run_s["change_better_in_pairs"] == "3/4"
    assert (run_s["change_over_parent_median"], run_s["worse_by_share"]) == (0.8261, -0.1739)
    assert run_s["within_bound"] is True
    assert run_s["median_gap_over_parent_iqr"] == 1.33
    work = entry["metrics"]["work_per_s"]
    assert work["change_better_in_pairs"] == "3/4"
    assert (work["change_over_parent_median"], work["worse_by_share"]) == (1.1892, -0.1892)


def test_bench_pairs_reproduces_a_committed_summary():
    # The derived fields of BENCH_26.json follow from its runs, which it
    # stores rounded to 1e-6: a median or quartile of the rounded runs is
    # within 1e-6 of the stored one (half a unit from the runs, half from
    # rounding it), and each ratio agrees to its last digit.
    committed = json.loads((ROOT / "BENCH_26.json").read_text())["workloads"]["flow-ensemble"]
    last_digit = {"change_over_parent_median": 1e-4, "worse_by_share": 1e-4, "median_gap_over_parent_iqr": 1e-2}
    for name, metric in committed["metrics"].items():
        derived = BENCH_PAIRS["summarise_metric"](metric["parent"]["runs"], metric["change"]["runs"], metric["unit"],
                                                  metric["better"], metric["bound"], committed["first"])
        for key, value in metric.items():
            if key in ("parent", "change"):
                assert derived[key] == pytest.approx(value, abs=1.01e-6), (name, key)
            else:
                assert derived[key] == pytest.approx(value, abs=last_digit.get(key, 0.0)), (name, key)
