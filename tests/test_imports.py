"""Every module of the library and of its tests uses each name it imports.

The repository runs no linter, so this stdlib-``ast`` check stands in for
one: a name bound by an import statement anywhere in a module must be read
as a plain name somewhere in that module.
"""

import ast
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(REPO_ROOT / "src" / "robustcert").glob("*.py"),
                  *(REPO_ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that no ``Name`` node reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_are_found():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "from __future__ import annotations\nos.sep, d\n")
    assert unused_imports(source) == [(2, "osp"), (3, "b")]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(REPO_ROOT)) for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
