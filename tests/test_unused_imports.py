"""No module of the package imports a name it never reads.

An import is checked in the scope it binds in: a module-level import must
be read somewhere in the module, an import inside a function somewhere in
that function.  An import line marked ``# noqa`` is exempt; it keeps a name
that code outside the package looks up on the module.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "mutexec"
MODULES = sorted(PACKAGE.glob("*.py"))

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _imports(scope):
    """The import statements that bind in ``scope`` itself."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` for each imported name that its scope never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    unused = []
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        reads = {node.id for node in ast.walk(scope)
                 if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in _imports(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound == "*" or "# noqa" in lines[alias.lineno - 1]:
                    continue
                if bound not in reads:
                    unused.append((alias.lineno, bound))
    return sorted(unused)


def test_checker_finds_an_unused_import():
    source = (
        "import os\n"
        "import json  # noqa\n"
        "from .dsl import INT, TList\n"
        "def f():\n"
        "    import sys\n"
        "    return TList(INT)\n"
        "def g():\n"
        "    return sys\n"
    )
    assert unused_imports(source) == [(1, "os"), (5, "sys")]


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_module_reads_every_name_it_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
