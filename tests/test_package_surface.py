"""Every module-level function and class of the package is read by the
package, the benchmark or the demos.

A definition counts as read where code looks it up:

* in its own module, a load of its name that resolves to the module's
  global in the scope of the load (a local or a parameter of the same name
  shadows it), outside the definition itself;
* anywhere, a load of a name imported from its module, an attribute of its
  module (``grammar.Sampler``), or a call that names it on its module
  (``getattr(grammar, "Sampler")``, as ``bench/tracing.py`` patches).

Each non-dunder method and property of a module-level package class counts
as read where the package, the benchmark or the demos name it: as an
attribute (``.sample``), or as the string second argument of a call
(``getattr(sampler, "sample")``).  Only the name is matched, whatever the
object.

Tests do not count: what only the tests read belongs in ``tests/reference.py``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mutexec"
MODULES = sorted(PACKAGE.glob("*.py"))
READERS = MODULES + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


class _Scope:
    def __init__(self, is_class: bool = False):
        self.is_class = is_class
        # name -> what it is bound to: ("module", m), ("name", m, name) or
        # None for any other binding
        self.names: dict = {}
        self.free: set = set()  # declared global or nonlocal


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module that ``from <it> import ...`` names; "" for the
    package itself, None for a module outside it."""
    if node.level:
        return node.module or ""
    if node.module == "mutexec":
        return ""
    if node.module and node.module.startswith("mutexec."):
        return node.module[len("mutexec."):]
    return None


def _bind_import(scope: _Scope, node, modules: set) -> None:
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.asname is None:
                bound = alias.name.split(".")[0]
                target = ("module", "") if bound == "mutexec" else None
            elif alias.name.startswith("mutexec."):
                target = ("module", alias.name[len("mutexec."):])
            else:
                target = None
            scope.names[alias.asname or bound] = target
        return
    source = _package_module(node)
    for alias in node.names:
        bound = alias.asname or alias.name
        if source is None:
            scope.names[bound] = None
        elif source == "" and alias.name in modules:
            scope.names[bound] = ("module", alias.name)
        else:
            scope.names[bound] = ("name", source, alias.name)


def _collect(scope: _Scope, body_nodes, modules: set, module: str | None) -> None:
    """Bind in ``scope`` the names its own statements bind, without entering
    nested scopes (whose names are their own)."""
    stack = list(body_nodes)
    while stack:
        node = stack.pop()
        if node is None:  # a keyword-only argument without a default
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope.names[node.name] = ("name", module, node.name) if module is not None else None
            stack.extend(node.decorator_list)
            if not isinstance(node, ast.ClassDef):
                stack.extend(node.args.defaults + node.args.kw_defaults)
            else:
                stack.extend(node.bases + [k.value for k in node.keywords])
            continue
        if isinstance(node, ast.Lambda):
            stack.extend(node.args.defaults + node.args.kw_defaults)
            continue
        if isinstance(node, _COMPREHENSIONS):
            stack.append(node.generators[0].iter)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            _bind_import(scope, node, modules)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            scope.free.update(node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            scope.names.setdefault(node.id, None)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            scope.names.setdefault(node.name, None)
        stack.extend(ast.iter_child_nodes(node))
    for name in scope.free:
        scope.names.pop(name, None)


def _arguments(args: ast.arguments) -> list[str]:
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
    return names


class _Reads(ast.NodeVisitor):
    """The ``(module, name)`` pairs of package definitions that one file
    reads, a read in a definition of its own module excepted."""

    def __init__(self, module: str | None, modules: set):
        self.module = module
        self.modules = modules
        self.scopes: list[_Scope] = []
        self.outer: str | None = None  # the module-level definition we are in
        self.reads: set = set()

    def run(self, tree: ast.Module) -> set:
        scope = _Scope()
        _collect(scope, tree.body, self.modules, self.module)
        self.scopes.append(scope)
        for node in tree.body:
            self.visit(node)
        return self.reads

    def lookup(self, name: str):
        innermost = self.scopes[-1]
        for scope in reversed(self.scopes):
            if scope.is_class and scope is not innermost:
                continue
            if name in scope.names:
                return scope.names[name]
        return None

    def read(self, target) -> None:
        if target is None or target[0] != "name":
            return
        _, module, name = target
        if module == self.module and name == self.outer:
            return
        self.reads.add((module, name))

    def target(self, node):
        """What a name or an attribute chain refers to, if known."""
        if isinstance(node, ast.Name):
            return self.lookup(node.id)
        if isinstance(node, ast.Attribute):
            base = self.target(node.value)
            if base is not None and base[0] == "module":
                if base[1] == "" and node.attr in self.modules:
                    return ("module", node.attr)
                return ("name", base[1], node.attr)
        return None

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.read(self.target(node))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        target = self.target(node)
        if target is not None:
            self.read(target)
        else:
            self.visit(node.value)

    def visit_Call(self, node: ast.Call) -> None:
        args = node.args
        if len(args) >= 2 and isinstance(args[1], ast.Constant) and isinstance(args[1].value, str):
            base = self.target(args[0])
            if base is not None and base[0] == "module":
                self.read(("name", base[1], args[1].value))
        self.generic_visit(node)

    def enter(self, node, names, body, is_class=False) -> None:
        scope = _Scope(is_class)
        for name in names:
            scope.names[name] = None
        _collect(scope, body, self.modules, None)
        outer = self.outer
        if len(self.scopes) == 1 and not isinstance(node, (ast.Lambda,) + _COMPREHENSIONS):
            self.outer = node.name
        self.scopes.append(scope)
        for child in body:
            self.visit(child)
        self.scopes.pop()
        self.outer = outer

    def visit_FunctionDef(self, node) -> None:
        for expr in node.decorator_list + node.args.defaults + node.args.kw_defaults:
            if expr is not None:
                self.visit(expr)
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
            if arg is not None and arg.annotation is not None:
                self.visit(arg.annotation)
        if node.returns is not None:
            self.visit(node.returns)
        self.enter(node, _arguments(node.args), node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        for expr in node.args.defaults + node.args.kw_defaults:
            if expr is not None:
                self.visit(expr)
        self.enter(node, _arguments(node.args), [node.body])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        for expr in node.decorator_list + node.bases + [k.value for k in node.keywords]:
            self.visit(expr)
        self.enter(node, [], node.body, is_class=True)

    def _comprehension(self, node) -> None:
        first, *rest = node.generators
        self.visit(first.iter)
        elements = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
        parts = [first.target, *first.ifs]
        for generator in rest:
            parts += [generator.target, generator.iter, *generator.ifs]
        self.enter(node, [], parts + elements)

    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _comprehension


def _definitions(source: str) -> list[str]:
    tree = ast.parse(source)
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def unread(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level function and class of
    ``package`` (module name -> source) that no file of ``readers`` (path ->
    source, the package's own modules among them as ``<module>.py``) reads."""
    modules = set(package)
    reads: set = set()
    for path, source in readers.items():
        stem = pathlib.PurePath(path).stem
        module = stem if path in {f"{m}.py" for m in modules} else None
        reads |= _Reads(module, modules).run(ast.parse(source))
    return sorted(f"{module}.{name}" for module, source in package.items()
                  for name in _definitions(source) if (module, name) not in reads)


def _methods(source: str) -> list[tuple[str, str]]:
    """``(class, name)`` for each non-dunder method and property of each
    module-level class."""
    return [(node.name, item.name) for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__") and item.name.endswith("__"))]


def _attribute_names(source: str) -> set[str]:
    """The attribute names ``source`` reads, and the string second arguments
    of its calls."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            names.add(node.args[1].value)
    return names


def unread_methods(package: dict[str, str], readers: dict[str, str]) -> list[str]:
    """``module.Class.name`` for each method or property of ``package``
    (module name -> source) whose name no file of ``readers`` (path ->
    source) reads."""
    reads = set().union(*map(_attribute_names, readers.values()))
    return sorted(f"{module}.{cls}.{name}" for module, source in package.items()
                  for cls, name in _methods(source) if name not in reads)


def _package_sources() -> tuple[dict[str, str], dict[str, str]]:
    package = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    readers = {}
    for path in READERS:
        key = f"{path.stem}.py" if path.parent == PACKAGE else str(path.relative_to(ROOT))
        readers[key] = path.read_text(encoding="utf-8")
    return package, readers


def test_checker_resolves_scopes():
    dsl = (
        "def partial(head):\n"           # shadowed by the parameter below
        "    return head\n"
        "def check(partial):\n"
        "    return partial\n"
        "def walk(node):\n"               # read only by itself
        "    return [walk(c) for c in node]\n"
        "def app(head):\n"                # read through an import
        "    return head\n"
        "def seen(xs):\n"                 # read by a comprehension
        "    return xs\n"
        "def shown():\n"
        "    return [seen(x) for x in ()]\n"
        "class Sampler:\n"                # read as an attribute of its module
        "    pass\n"
        "class Patched:\n"                # read by name on its module
        "    pass\n"
    )
    cli = (
        "from .dsl import app\n"
        "from . import dsl\n"
        "def main(check, shown):\n"
        "    return app, dsl.Sampler, getattr(dsl, 'Patched')\n"
    )
    assert unread({"dsl": dsl, "cli": cli}, {"dsl.py": dsl, "cli.py": cli}) == [
        "cli.main", "dsl.check", "dsl.partial", "dsl.shown", "dsl.walk"]


def test_every_definition_is_read_by_the_package_bench_or_demos():
    assert unread(*_package_sources()) == []


def test_method_checker_matches_names():
    dsl = (
        "class Primitive:\n"
        "    def __init__(self):\n"      # dunders are the language's to call
        "        self.kind = 1\n"
        "    @property\n"
        "    def arity(self):\n"         # read as an attribute
        "        return self.kind\n"
        "    def signature(self):\n"     # read by no one
        "        return self.arity\n"
        "    def patched(self):\n"       # read as a string on a call
        "        return 0\n"
        "    def stored(self):\n"        # only assigned to
        "        return 0\n"
        "def helper():\n"
        "    class Local:\n"             # not a module-level class
        "        def hidden(self):\n"
        "            return 0\n"
        "    return Local\n"
    )
    cli = (
        "def main(p):\n"
        "    p.stored = getattr(p, 'patched')\n"
        "    return p.helper\n"
    )
    assert unread_methods({"dsl": dsl, "cli": cli}, {"dsl.py": dsl, "cli.py": cli}) == [
        "dsl.Primitive.signature", "dsl.Primitive.stored"]


def test_every_method_is_read_by_the_package_bench_or_demos():
    assert unread_methods(*_package_sources()) == []


def test_only_forking_forks():
    """``forking.Child`` is the package's one fork: no other module calls
    ``os.fork``, ``os._exit`` or ``os.waitpid``, or imports them from ``os``."""
    names = {"fork", "_exit", "waitpid"}
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in names
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append((path.stem, f"os.{node.attr}"))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found.extend((path.stem, f"os.{alias.name}") for alias in node.names
                             if alias.name in names)
    assert sorted(set(found)) == [
        ("forking", "os._exit"), ("forking", "os.fork"), ("forking", "os.waitpid")]
