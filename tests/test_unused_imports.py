"""No module of the package imports or defines a name it never uses, and
none imports another module's private function or class.

A stdlib ``ast`` scan stands in for a linter: every name an import binds
must be read somewhere in the module or be listed in its ``__all__``, and
every module-level private name (a ``_x`` def, class or assignment) must be
read somewhere in the package.  A private ``def`` or ``class`` is read only
in its own module; a module-level private table (``catalog._FAMILIES``) may
be imported by a sibling.

``code_lines`` is the package's one count of code lines: non-blank lines
outside comments and docstrings.  ``knobs`` counts the package's defaults a
caller can set: the parameters with a default of public functions and
methods, and the defaulted fields of public classes.
``python tests/test_unused_imports.py`` prints both per module and for the
package; neither has a threshold.
"""

import ast
import io
import tokenize
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


_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The lines of ``source`` that hold a token other than a comment or
    layout (every line of a multi-line token), less the lines of each
    module, class and function docstring."""
    lines = {row for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type not in _LAYOUT for row in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def test_code_lines_counts_code_only():
    src = '''"""Module
docstring."""

# a comment
x = 1  # code, then a comment
class C:
    """One line."""

    def f(self):
        return """a
string"""
'''
    assert code_lines(src) == 5  # x, class, def, and both lines of the returned string


def _defaults(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def knobs(source: str) -> int:
    """The parameters with a default of the module-level functions of
    ``source`` and of the methods of its classes, counting only names not
    starting with ``_`` and ``__init__``, plus the annotated class-body
    fields with a default of those classes (NamedTuple and dataclass
    fields).  A private class counts nothing, nor does a nested function."""
    count = 0
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            count += _defaults(node)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_") or item.name == "__init__":
                        count += _defaults(item)
                elif isinstance(item, ast.AnnAssign) and item.value is not None:
                    count += 1
    return count


def test_knobs_counts_public_defaults_only():
    src = '''def f(a, b=1, *, c=2, d):
    def inner(x=0):
        return x
def _g(a=1):
    pass
class C(NamedTuple):
    x: int
    y: int = 0
    z = 5
    def __init__(self, a=1, b=2):
        pass
    def m(self, k=3):
        pass
    def _p(self, k=3):
        pass
    def __call__(self, k=3):
        pass
class _D:
    w: int = 1
    def __init__(self, a=1):
        pass
'''
    assert knobs(src) == 6  # f's b and c, C's y, __init__'s a and b, m's k


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


def private_imports(sources: dict[str, str]) -> list[str]:
    """Imports in ``sources`` (file name: source) of a leading-underscore
    name that the sibling module imported from defines by ``def`` or ``class``."""
    trees = {Path(name).stem: ast.parse(source) for name, source in sources.items()}
    private = {
        stem: {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and _is_private(node.name)}
        for stem, tree in trees.items()
    }
    return [
        f"{stem}.py line {node.lineno}: {node.module}.{alias.name}"
        for stem, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in private
        for alias in node.names
        if alias.name in private[node.module]
    ]


def test_no_module_imports_a_private_function_or_class():
    assert private_imports({path.name: path.read_text() for path in SOURCES}) == []


def test_scan_sees_a_private_import():
    a = "_T = {}\ndef _f():\n    pass\nclass _C:\n    pass\ndef g():\n    pass\n"
    b = "from .a import _T, _f, g\nfrom .a import _C as C\nfrom os import _exit\nfrom . import a\n"
    c = "def _f():\n    pass\nfrom .b import _f as f\n"
    assert private_imports({"a.py": a, "b.py": b, "c.py": c}) == ["b.py line 1: a._f", "b.py line 2: a._C"]


if __name__ == "__main__":
    totals = [0, 0]
    print(f"{'module':<16}{'lines':>6}{'knobs':>6}")
    for path in SOURCES:
        counts = code_lines(path.read_text()), knobs(path.read_text())
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<16}{counts[0]:>6}{counts[1]:>6}")
    print(f"{'total':<16}{totals[0]:>6}{totals[1]:>6}")
