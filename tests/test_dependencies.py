"""Which parts of scipy the package imports.

Every ``import`` statement in ``src/hetflow``, function-local ones included,
is read from the source.  Checking ``sys.modules`` after an import would not
do: ``scipy.integrate`` itself loads ``scipy.linalg``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hetflow"

# module -> the scipy modules it may import.
ALLOWED = {"homothety": {"scipy.integrate"}}


def _scipy_imports(path: Path) -> set:
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found.update(name for name in names if name == "scipy" or name.startswith("scipy."))
    return found


def test_scipy_is_imported_only_where_listed():
    seen = {path.stem: _scipy_imports(path) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: mods for name, mods in seen.items() if mods} == ALLOWED


def _fresh_cli(code: str) -> str:
    """The output of ``code`` in a new interpreter that has imported ``hetflow.cli``."""
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", "import sys, hetflow.cli; " + code],
                         env=env, capture_output=True, text=True, check=True)
    return run.stdout.strip()


def test_the_cli_starts_without_scipy():
    # scipy.integrate is imported inside collapse_time_quadrature, which no
    # CLI command reaches, so starting the CLI loads no scipy module.
    assert _fresh_cli("print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))") == "[]"


def test_the_cli_starts_without_generating_a_solver_step():
    # het_flow generates its Dormand-Prince step on a run's first use, so
    # starting the CLI pays for no code generation.
    assert _fresh_cli("print(hetflow.het_flow._dp_step_for.cache_info().currsize)") == "0"
