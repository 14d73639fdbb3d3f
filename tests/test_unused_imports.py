"""No module of the package imports a name it never reads, and no module
defines a private name that the package never reads.

An import is checked in the scope it binds in: a module-level import must
be read somewhere in the module, an import inside a function somewhere in
that function.  An import line marked ``# noqa`` is exempt; it keeps a name
that code outside the package looks up on the module.  A private name (one
``_``, not a dunder) that a module binds at its top level, by assignment,
``def`` or ``class``, must be read somewhere in the package: as a name or
as an attribute.
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


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """``(module, line, name)`` for each private name that a module of
    ``sources`` (module name to text) binds at its top level and that no
    module reads."""
    bound = []
    reads = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [(stmt.lineno, stmt.name)]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [(node.lineno, node.id) for target in targets
                         for node in ast.walk(target) if isinstance(node, ast.Name)]
            else:
                continue
            bound += [(module, line, name) for line, name in names
                      if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
    return sorted(entry for entry in bound if entry[2] not in reads)


def test_checker_finds_an_unread_private_name():
    sources = {
        "a": "_USED, _SPARE = 1, 2\n_ALSO: int = 3\ndef _helper():\n    return _USED\n"
             "class _Gone:\n    pass\n__version__ = '1'\n",
        "b": "from . import a\ndef f():\n    return a._helper()\n",
    }
    assert unread_private_names(sources) == [("a", 1, "_SPARE"), ("a", 2, "_ALSO"),
                                             ("a", 5, "_Gone")]


def test_package_reads_every_private_name_it_defines():
    sources = {module.name: module.read_text(encoding="utf-8") for module in MODULES}
    assert unread_private_names(sources) == []
