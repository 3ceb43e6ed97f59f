"""Which parts of scipy, and of hetflow itself, the package's modules import.

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


def _hetflow_imports(path: Path) -> set:
    """The sibling modules that ``path`` imports relatively, and any import of
    ``hetflow`` by name, as written."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.split(".")[0]] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module or ""] if isinstance(node, ast.ImportFrom) else [alias.name for alias in node.names]
            found.update(name for name in names if name.split(".")[0] == "hetflow")
    return found


def test_homothety_imports_only_het_flow_from_the_package():
    # The scalar reductions need the integrator alone; no curvature module.
    assert _hetflow_imports(PACKAGE / "homothety.py") == {"het_flow"}


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
