"""Translation from DSL terms to imperative mini-language source.

The translation works on the term graph in reverse topological order
(children before parents, left to right):

* ``empty`` and ``if`` nodes get variables ``v1, v2, ...`` in that order;
  parameters are ``a1, a2, ...``.  A partial node is named as its
  completion (``dsl.complete``), the full application to the element.
* Every node gets an expression: pure computations map to inline Python
  expressions, while list operations and ``map`` map to the expression of
  the list they operate on (their effect happens via a statement).
* Statements are emitted walking the same order, skipping partial nodes.
  ``map`` becomes a for-loop over ``range(len(<list>))`` whose body is its
  function's completion, emitted like any full node, with the element leaf
  as the loop's place ``v1[i]``.  A list operation or nested map changes
  the element in place; any other value is assigned back to it.  Nested
  maps nest loops with index variables i, j, k, ... by depth, and index the
  outermost list with all of them (``v1[i][j]``).
* The final line returns the root node's expression.

The walk builds the ``minipy`` AST directly, each statement carrying its
line, and the source text is rendered from that AST.  The AST is
the one ``minipy.parse`` gives for the text (``repr`` equal), so the ground
truth interpreted from it is the ground truth of the stored source, with no
parse.  One shape needs care: the text does not parenthesize a connective's
operand that is the same connective, so ``(&& a (&& b c))`` is written
``a and b and c``, which the parser groups as ``(a and b) and c``, and the
walk builds it that way.

A partial application is translated only as the function of a ``map``.  Any
other function-typed argument, such as the branches of the full ``if`` in
``(map (if c (length) (length)) (append a1 empty))``, is an
``UntranslatableNode``.
"""

from __future__ import annotations

from .dsl import COMPARISONS, ELEMENT, STATEMENT_HEADS, Term, complete
from .minipy import (
    Assign,
    BoolOp,
    Compare,
    Expr,
    ExprStmt,
    ForRange,
    FunctionDef,
    If,
    LenCall,
    ListDisplay,
    MethodCall,
    Module,
    Name,
    NotOp,
    Num,
    Return,
    Stmt,
    Subscript,
    TupleAssign,
)


class UntranslatableNode(Exception):
    pass


class ImpProgram:
    __slots__ = ("source", "ast", "function_name", "loc")

    def __init__(self, source: str, ast: Module, function_name: str, loc: int):
        self.source = source
        self.ast = ast  # equal to minipy.parse(source)
        self.function_name = function_name
        self.loc = loc


_INDENT = "    "
_LOOP_VARS = "ijklmn"
_CONNECTIVES = {"&&": "and", "||": "or"}
_METHODS = {"append": "append", "extend": "extend", "init": "pop", "tail": "pop"}
# heads whose statement changes the element of a loop in place
_IN_PLACE = frozenset(_METHODS) | {"map"}


def _bool_op(op: str, left: Expr, right: Expr) -> BoolOp:
    """``left op right`` as the parser reads its text: an operand that is the
    same connective is not parenthesized, so the parser groups the right
    operand's operands onto the left."""
    if type(right) is BoolOp and right.op == op:
        return BoolOp(op, _bool_op(op, left, right.left), right.right)
    return BoolOp(op, left, right)


class _Translator:
    def __init__(self, term: Term, function_name: str, arity: int):
        self.term = term
        self.function_name = function_name
        self.arity = arity
        self.vnames: dict[int, str] = {}
        # id of each partial node -> its completion
        self.completions: dict[int, Term] = {}
        self.line = 0  # the last line emitted
        self.order = term.postorder()
        # the element leaf's place: the list of the outermost map being
        # emitted, indexed by the loop variables, outermost first
        self.seq: Term | None = None
        self.loop_vars = ""

    def next_line(self) -> int:
        self.line += 1
        return self.line

    # -- expressions

    def value(self, node: Term) -> Expr:
        """The expression of full ``node``."""
        head = node.head
        c = node.children
        if head == "lit":
            return Num(node.value)
        if head == "param":
            if node.value:
                return Name(f"a{node.value}")
            place = self.value(self.seq)  # the element: v1[i][j]
            for var in self.loop_vars:
                place = Subscript(place, Name(var))
            return place
        if head == "empty" or head == "if":
            return Name(self.vnames[id(node)])
        if head == "index":
            return Subscript(self.value(c[1]), self.value(c[0]))
        if head == "length":
            return LenCall(self.value(c[0]))
        if head in COMPARISONS:
            return Compare(head, self.value(c[0]), self.value(c[1]))
        if head in _CONNECTIVES:
            return _bool_op(_CONNECTIVES[head], self.value(c[0]), self.value(c[1]))
        if head == "!":
            return NotOp(self.value(c[0]))
        if head == "init" or head == "tail":
            return self.value(c[0])
        return self.value(c[1])  # append, extend, map: the list operand

    # -- statements

    def statement(self, node: Term, body: list[Stmt]) -> None:
        head = node.head
        if head == "map":
            self.loop(node, body)
        elif head == "if":
            self.branch(node, body)
        else:  # a list operation: a method call on its list
            line = self.next_line()
            if head == "init":
                args = []
            elif head == "tail":
                args = [Num(0)]
            else:
                args = [self.value(node.children[0])]
            body.append(ExprStmt(line, MethodCall(self.value(node), _METHODS[head], args)))

    def branch(self, node: Term, body: list[Stmt]) -> None:
        """``if``: the conditional assignment of its variable."""
        c = node.children
        v = self.vnames[id(node)]
        line = self.next_line()
        then_body = [Assign(self.next_line(), Name(v), self.value(c[1]))]
        self.next_line()  # else:
        orelse = [Assign(self.next_line(), Name(v), self.value(c[2]))]
        body.append(If(line, self.value(c[0]), then_body, orelse))

    def loop(self, node: Term, body: list[Stmt]) -> None:
        """``map``: a loop over its list whose body applies the function,
        completed, to the element at the loop's place.  A list operation or
        map changes the element in place; any other value is assigned back."""
        fn, seq = node.children
        depth = len(self.loop_vars)
        if depth >= len(_LOOP_VARS):
            raise UntranslatableNode("map nesting too deep")
        line = self.next_line()
        loop_body: list[Stmt] = []
        body.append(ForRange(line, _LOOP_VARS[depth], [LenCall(self.value(seq))], loop_body))
        if not depth:
            self.seq = seq
        self.loop_vars += _LOOP_VARS[depth]
        full = self.completions[id(fn)]
        if full.head in STATEMENT_HEADS:
            self.statement(full, loop_body)
        if full.head not in _IN_PLACE:
            loop_body.append(Assign(self.next_line(), self.value(ELEMENT), self.value(full)))
        self.loop_vars = self.loop_vars[:depth]

    def run(self) -> ImpProgram:
        empties = []
        for node in self.order:
            if node.partial:
                # named and checked as the full application the loop emits
                full = self.completions[id(node)] = complete(node)
                node = full
            head = node.head
            if head == "empty" or head == "if":
                name = f"v{len(self.vnames) + 1}"
                self.vnames[id(node)] = name
                if head == "empty":
                    empties.append(name)
            for k, child in enumerate(node.children):
                if child.partial and (head != "map" or k):
                    raise UntranslatableNode(
                        f'"{head}" with function-typed arguments: only map takes a function')
        body: list[Stmt] = []
        line = self.next_line()  # def
        if empties:
            line = self.next_line()
            targets = [Name(v) for v in empties]
            inits: list[Expr] = [ListDisplay([]) for _ in empties]
            if len(empties) == 1:
                body.append(Assign(line, targets[0], inits[0]))
            else:
                body.append(TupleAssign(line, targets, inits))
        for node in self.order:
            if node.head in STATEMENT_HEADS and not node.partial:
                self.statement(node, body)
        body.append(Return(self.next_line(), self.value(self.term)))

        params = [f"a{i}" for i in range(1, self.arity + 1)]
        ast = Module([FunctionDef(1, self.function_name, params, body)])
        lines: list[str] = []
        _render_block(ast.body, 0, lines)
        return ImpProgram(source="\n".join(lines), ast=ast,
                          function_name=self.function_name, loc=self.line)


# ---------------------------------------------------------------------------
# Rendering: the text of the AST forms the walk builds.  An operand is
# parenthesized only where the parser would otherwise group it differently.

_PREC = {"or": 1, "and": 2, "==": 4, "<": 4, ">": 4}
_NOT_PREC = 3
_ATOM_PREC = 9


def _text(expr: Expr, floor: int = 0) -> str:
    """The text of ``expr`` as an operand that binds at least as tightly as
    ``floor``."""
    cls = type(expr)
    if cls is Name:
        return expr.id
    if cls is Subscript:
        return f"{_text(expr.obj, _ATOM_PREC)}[{_text(expr.index)}]"
    if cls is Num:
        return str(expr.value)
    if cls is LenCall:
        return f"len({_text(expr.arg)})"
    if cls is MethodCall:
        args = ", ".join([_text(a) for a in expr.args])
        return f"{_text(expr.obj, _ATOM_PREC)}.{expr.method}({args})"
    if cls is ListDisplay:
        return f"[{', '.join([_text(e) for e in expr.elems])}]"
    if cls is NotOp:
        prec = _NOT_PREC
        text = f"not {_text(expr.operand, _NOT_PREC)}"
    else:  # BoolOp groups to the left, Compare does not chain
        prec = _PREC[expr.op]
        left = prec if cls is BoolOp else prec + 1
        text = f"{_text(expr.left, left)} {expr.op} {_text(expr.right, prec + 1)}"
    return f"({text})" if prec < floor else text


def _render_block(body: list[Stmt], depth: int, lines: list[str]) -> None:
    pad = _INDENT * depth
    for stmt in body:
        cls = type(stmt)
        if cls is Assign:
            lines.append(f"{pad}{_text(stmt.target)} = {_text(stmt.value)}")
        elif cls is ExprStmt:
            lines.append(pad + _text(stmt.value))
        elif cls is If:
            lines.append(f"{pad}if {_text(stmt.cond)}:")
            _render_block(stmt.body, depth + 1, lines)
            lines.append(pad + "else:")
            _render_block(stmt.orelse, depth + 1, lines)
        elif cls is ForRange:
            lines.append(f"{pad}for {stmt.var} in range({_text(stmt.args[0])}):")
            _render_block(stmt.body, depth + 1, lines)
        elif cls is Return:
            lines.append(f"{pad}return {_text(stmt.value)}")
        elif cls is TupleAssign:
            targets = ", ".join([_text(t) for t in stmt.targets])
            values = ", ".join([_text(v) for v in stmt.values])
            lines.append(f"{pad}{targets} = {values}")
        else:  # FunctionDef
            lines.append(f"{pad}def {stmt.name}({', '.join(stmt.params)}):")
            _render_block(stmt.body, depth + 1, lines)


def translate(term: Term, function_name: str = "f", arity: int | None = None) -> ImpProgram:
    """Translate a well-typed, constraint-satisfying term to imperative source.

    The returned ``ast`` is built in the translation walk, not parsed, and is
    equal to ``minipy.parse(source)``.  A partial application anywhere but in
    ``map``'s function slot, such as a full ``if`` with function-typed
    branches, raises ``UntranslatableNode``."""
    if arity is None:
        arity = max((n.value for n in term.walk() if n.is_param), default=1)
    return _Translator(term, function_name, arity).run()
