"""Every name a public ``__all__`` lists must resolve on its module, and the
README's library example runs as written."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import qrds

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("qrds",) + tuple(
    f"qrds.{info.name}" for info in pkgutil.iter_modules(qrds.__path__)
)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ lists undefined names"


def test_readme_library_example_runs():
    # the first python block of the "## Library" section, asserts kept even
    # under python -O, and the value its comment states
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec", optimize=0), namespace)
    c = namespace["f"].coefficient(14)
    assert type(c) is int and c == 4
