"""Import hygiene: no module of the package imports a name it never uses.

No linter runs on this package, so this is what catches an import left
behind when the code that used it is removed.  `__init__.py` is skipped:
its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fibexpr"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no Name node reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom . import graph\nfrom .expr import a as b, c\n"
                          "from __future__ import annotations\nc(os.sep)\n") == ["graph", "b"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
