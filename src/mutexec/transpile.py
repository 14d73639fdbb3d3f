"""Translation from DSL terms to imperative mini-language source.

The translation works on the term graph in reverse topological order
(children before parents, left to right):

* ``empty`` and ``if`` nodes get variables ``v1, v2, ...`` in that order;
  parameters are ``a1, a2, ...``.
* Every node gets an expression: pure computations map to inline Python
  expressions, while list operations and ``map`` map to the expression of
  the list they operate on (their effect happens via a statement).
* Statements are emitted walking the same order, skipping partial nodes.
  ``map`` becomes a for-loop over ``range(len(<list>))`` whose body applies
  the mapping function to the indexed element, with a write-back assignment
  when the function is a pure expression or a conditional.  Nested maps in
  function position nest loops with index variables i, j, k, ... by depth.
* The final line returns the root node's expression.
"""

from __future__ import annotations

from . import minipy
from .dsl import STATEMENT_HEADS, Term


class UntranslatableNode(Exception):
    pass


class ImpProgram:
    __slots__ = ("source", "ast", "function_name", "loc")

    def __init__(self, source: str, ast: minipy.Module, function_name: str, loc: int):
        self.source = source
        self.ast = ast
        self.function_name = function_name
        self.loc = loc


_INDENT = "    "
_LOOP_VARS = "ijklmn"

# Rendering precedence; only boolean connectives ever need parentheses.
_PREC = {"||": 1, "&&": 2, "!": 3, "==": 4, "<": 4, ">": 4}
_ATOM_PREC = 9


class _Translator:
    def __init__(self, term: Term, function_name: str, arity: int):
        self.term = term
        self.function_name = function_name
        self.arity = arity
        self.vnames: dict[int, str] = {}
        self.exprs: dict[int, str] = {}
        self.prec: dict[int, int] = {}
        self.lines: list[str] = []
        self.order = term.postorder()

    # -- expression assembly

    def wrap(self, node: Term, parent_prec: int) -> str:
        text = self.exprs[id(node)]
        if self.prec[id(node)] < parent_prec:
            return f"({text})"
        return text

    def set_expr(self, node: Term, text: str, prec: int = _ATOM_PREC) -> None:
        self.exprs[id(node)] = text
        self.prec[id(node)] = prec

    def assign_names_and_exprs(self) -> None:
        counter = 0
        for node in self.order:
            if node.head in ("empty", "if"):
                counter += 1
                self.vnames[id(node)] = f"v{counter}"
        for node in self.order:
            c = node.children
            if node.is_lit:
                self.set_expr(node, str(node.value))
            elif node.is_param:
                self.set_expr(node, f"a{node.value}")
            elif node.head in ("empty", "if"):
                self.set_expr(node, self.vnames[id(node)])
            elif node.partial:
                continue  # assembled at application time
            elif node.head == "length":
                self.set_expr(node, f"len({self.exprs[id(c[0])]})")
            elif node.head == "index":
                self.set_expr(node, f"{self.exprs[id(c[1])]}[{self.exprs[id(c[0])]}]")
            elif node.head in ("==", "<", ">"):
                op = node.head
                self.set_expr(
                    node,
                    f"{self.wrap(c[0], _PREC[op])} {op} {self.wrap(c[1], _PREC[op])}",
                    _PREC[op],
                )
            elif node.head in ("&&", "||"):
                op = "and" if node.head == "&&" else "or"
                p = _PREC[node.head]
                self.set_expr(node, f"{self.wrap(c[0], p)} {op} {self.wrap(c[1], p)}", p)
            elif node.head == "!":
                self.set_expr(node, f"not {self.wrap(c[0], _PREC['!'])}", _PREC["!"])
            elif node.head in ("append", "extend", "map"):
                self.set_expr(node, self.exprs[id(c[1])])
            elif node.head in ("init", "tail"):
                self.set_expr(node, self.exprs[id(c[0])])
            else:
                raise UntranslatableNode(node.head)

    # -- statement emission

    def emit(self, depth: int, text: str) -> None:
        self.lines.append(_INDENT * (depth + 1) + text)

    def emit_statement(self, node: Term) -> None:
        c = node.children
        e = self.exprs
        if node.head == "append":
            self.emit(0, f"{e[id(c[1])]}.append({e[id(c[0])]})")
        elif node.head == "extend":
            self.emit(0, f"{e[id(c[1])]}.extend({e[id(c[0])]})")
        elif node.head == "init":
            self.emit(0, f"{e[id(c[0])]}.pop()")
        elif node.head == "tail":
            self.emit(0, f"{e[id(c[0])]}.pop(0)")
        elif node.head == "if":
            v = self.vnames[id(node)]
            self.emit(0, f"if {e[id(c[0])]}:")
            self.emit(1, f"{v} = {e[id(c[1])]}")
            self.emit(0, "else:")
            self.emit(1, f"{v} = {e[id(c[2])]}")
        elif node.head == "map":
            self.emit_map(node, e[id(node)], 0)
        else:
            raise UntranslatableNode(node.head)

    def emit_map(self, node: Term, list_expr: str, depth: int) -> None:
        if depth >= len(_LOOP_VARS):
            raise UntranslatableNode("map nesting too deep")
        var = _LOOP_VARS[depth]
        self.emit(depth, f"for {var} in range(len({list_expr})):")
        self.apply_fn(node.children[0], f"{list_expr}[{var}]", depth + 1)

    def apply_fn(self, fn: Term, elem: str, depth: int) -> None:
        c = fn.children
        e = self.exprs
        if fn.head == "length":
            self.emit(depth, f"{elem} = len({elem})")
        elif fn.head == "index":
            self.emit(depth, f"{elem} = {elem}[{e[id(c[0])]}]")
        elif fn.head in ("==", "<", ">"):
            self.emit(depth, f"{elem} = {e[id(c[0])]} {fn.head} {elem}")
        elif fn.head in ("&&", "||"):
            op = "and" if fn.head == "&&" else "or"
            self.emit(depth, f"{elem} = {self.wrap(c[0], _PREC[fn.head])} {op} {elem}")
        elif fn.head == "!":
            self.emit(depth, f"{elem} = not {elem}")
        elif fn.head == "append":
            self.emit(depth, f"{elem}.append({e[id(c[0])]})")
        elif fn.head == "extend":
            self.emit(depth, f"{elem}.extend({e[id(c[0])]})")
        elif fn.head == "init":
            self.emit(depth, f"{elem}.pop()")
        elif fn.head == "tail":
            self.emit(depth, f"{elem}.pop(0)")
        elif fn.head == "if":
            v = self.vnames[id(fn)]
            self.emit(depth, f"if {e[id(c[0])]}:")
            self.emit(depth + 1, f"{v} = {e[id(c[1])]}")
            self.emit(depth, "else:")
            self.emit(depth + 1, f"{v} = {elem}")
            self.emit(depth, f"{elem} = {v}")
        elif fn.head == "map":
            self.emit_map(fn, elem, depth)
        else:
            raise UntranslatableNode(f"{fn.head} cannot be a map function")

    def run(self) -> ImpProgram:
        self.assign_names_and_exprs()
        empties = [
            self.vnames[id(n)]
            for n in self.order
            if n.head == "empty" and not n.partial
        ]
        for node in self.order:
            if node.partial or node.head not in STATEMENT_HEADS:
                continue
            self.emit_statement(node)
        self.emit(0, f"return {self.exprs[id(self.term)]}")

        params = tuple(f"a{i}" for i in range(1, self.arity + 1))
        header = [f"def {self.function_name}({', '.join(params)}):"]
        if empties:
            if len(empties) == 1:
                header.append(f"{_INDENT}{empties[0]} = []")
            else:
                inits = ", ".join("[]" for _ in empties)
                header.append(f"{_INDENT}{', '.join(empties)} = {inits}")
        source = "\n".join(header + self.lines)
        return ImpProgram(
            source=source,
            ast=minipy.parse(source),
            function_name=self.function_name,
            loc=len(header) + len(self.lines),
        )


def translate(term: Term, function_name: str = "f", arity: int | None = None) -> ImpProgram:
    """Translate a well-typed, constraint-satisfying term to imperative source."""
    if arity is None:
        arity = max((n.value for n in term.walk() if n.is_param), default=1)
    return _Translator(term, function_name, arity).run()
