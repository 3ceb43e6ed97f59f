"""Smoke test: the experiment-script commands of README.md run and conclude.

Each command runs in this process through ``runpy``, with ``sys.argv`` set
as the shell would set it, and must exit 0 with its expected last line.
"""

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
