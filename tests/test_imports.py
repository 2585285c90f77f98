"""Every module of the library and of its tests uses each name it imports,
and everything the library defines at module level is read somewhere.  The
CLI's one-variable uncertainty path never imports ``scipy.ndimage``.

The repository runs no linter, so these stdlib-``ast`` checks stand in for
one.  A name bound by an import statement anywhere in a module must be read
as a plain name somewhere in that module.  A function, class or variable
defined at the top level of a library module must be read, as a plain name
or as an attribute, somewhere in ``src/``, ``tests/`` or ``perfbench/``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((REPO_ROOT / "src" / "robustcert").glob("*.py"))
MODULES = sorted([*LIBRARY, *(REPO_ROOT / "tests").glob("*.py")])
READERS = sorted(path for root in ("src", "tests", "perfbench")
                 for path in (REPO_ROOT / root).rglob("*.py"))


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


def module_definitions(source: str) -> list:
    """(line, name) of each function, class and variable defined at the top
    level of a module."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out.extend((node.lineno, n.id) for target in targets
                       for n in ast.walk(target) if isinstance(n, ast.Name))
    return out


def names_read(source: str) -> set:
    """Every name a module reads, as a plain name or as an attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load)}


def test_dead_definitions_are_found():
    source = ("X, (Y, Z) = 1, (2, 3)\nW: int = 4\ndef f(): return g\n"
              "class C: pass\nasync def g(): pass\nif X: V = 5\n")
    assert module_definitions(source) == [(1, "X"), (1, "Y"), (1, "Z"),
                                          (2, "W"), (3, "f"), (4, "C"),
                                          (5, "g")]
    read = names_read(source) | names_read("m.C\nm.W = Y\n")
    assert [name for _, name in module_definitions(source)
            if name not in read] == ["Z", "W", "f"]


@pytest.fixture(scope="module")
def read_anywhere():
    return set().union(*(names_read(p.read_text()) for p in READERS))


@pytest.mark.parametrize("path", LIBRARY,
                         ids=[str(p.relative_to(REPO_ROOT)) for p in LIBRARY])
def test_library_definition_is_read_somewhere(path, read_anywhere):
    assert [(line, name) for line, name in module_definitions(path.read_text())
            if name not in read_anywhere] == []


def test_cli_at_one_uncertainty_variable_never_imports_ndimage():
    # the worst-case clustering imports scipy.ndimage only for p >= 2; the
    # bundled fixtures have p = 1, so check and report never pay its import
    script = (
        "import contextlib, io, sys\n"
        "from robustcert.cli import main\n"
        "for command in ('check', 'report'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([command, '--problem', 'ex3_2', '--point',\n"
        "                     '0,1', '--json']) == 0\n"
        "print('scipy.ndimage' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
