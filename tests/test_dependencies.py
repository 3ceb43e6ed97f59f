"""Which parts of scipy the package imports.

Every ``import`` statement in ``src/hetflow``, function-local ones included,
is read from the source.  Checking ``sys.modules`` after an import would not
do: ``scipy.integrate`` itself loads ``scipy.linalg``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hetflow"

# module -> the scipy modules it may import.
ALLOWED = {
    "het_flow": {"scipy.optimize"},
    "homothety": {"scipy.integrate"},
}


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
