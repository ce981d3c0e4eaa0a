"""No module of the package imports a name it never uses.

A stdlib ``ast`` scan stands in for a linter: every name an import binds
must be read somewhere in the module or be listed in its ``__all__``.
"""

import ast
from pathlib import Path

import pytest

import qrds

SOURCES = sorted(Path(qrds.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_an_unused_import():
    src = "import os\nfrom typing import Any, List\n__all__ = ['Any']\n"
    assert unused_imports(src) == ["line 2: List", "line 1: os"]
