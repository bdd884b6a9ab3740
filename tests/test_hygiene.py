"""Every module-level import in the package is used by its module, and the
package exports every public name its `__init__` imports."""

import ast
from pathlib import Path

import pytest

import btagents

MODULES = sorted(p for p in Path(btagents.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    assert unused_imports("import os\nimport time\nfrom re import compile as c\ntime.sleep(0)\n") == [
        "os",
        "c",
    ]


def test_package_exports_match_its_imports():
    source = Path(btagents.__file__).read_text(encoding="utf-8")
    imported = {
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    assert all(hasattr(btagents, name) for name in btagents.__all__)
    assert {name for name in imported if not name.startswith("_")} <= set(btagents.__all__)
