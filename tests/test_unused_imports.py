"""No module of the package imports or defines a name it never uses.

A stdlib ``ast`` scan stands in for a linter: every name an import binds
must be read somewhere in the module or be listed in its ``__all__``, and
every module-level private name (a ``_x`` def, class or assignment) must be
read somewhere in the package.
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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names of ``sources`` (file name: source) that no source reads."""
    defined, read = [], set()
    for name, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((name, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend(
                    (name, node.lineno, n.id)
                    for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{name} line {line}: {ident}"
        for name, line, ident in defined
        if _is_private(ident) and ident not in read
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_sees_an_unused_import():
    src = "import os\nfrom typing import Any, List\n__all__ = ['Any']\n"
    assert unused_imports(src) == ["line 2: List", "line 1: os"]


def test_no_unused_private_names():
    assert unused_private_names({path.name: path.read_text() for path in SOURCES}) == []


def test_scan_sees_an_unused_private_name():
    a = "_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return _A\nclass _C:\n    pass\n"
    b = "from .a import _f\n_D, x = _f(), 0\nprint(x._E)\n_E = 1\n"
    assert unused_private_names({"a.py": a, "b.py": b}) == [
        "a.py line 2: _B",
        "a.py line 6: _C",
        "b.py line 2: _D",
    ]
