"""Parser and interpreter for the imperative mini-language.

The language is the syntactic subset of Python that the translator emits,
plus the vocabulary mutation operators can introduce: integer/boolean
literals, list displays, arithmetic (``+ - * // %``), comparisons
(``< <= > >= == !=``), ``and``/``or``/``not``, indexing with negative
indices, ``len``, the list methods ``append``/``extend``/``pop``,
``for``/``range`` loops, ``while`` loops, ``if``/``elif``/``else``,
``break``/``continue``, assignment (including tuple assignment and
subscript targets), and ``return``.  Everything else is a syntax error.

Execution is deterministic big-step interpretation.  Runtime behavior
deliberately matches the host Python semantics (negative indexing, floor
division and modulo on negatives, short-circuit boolean operators,
aliasing of list values) so that results are directly comparable with a
real Python executor.  Every executed statement or loop/branch header
records its 1-based source line in the coverage set.
"""

from __future__ import annotations

import copy
import io
import tokenize as _tok
from dataclasses import dataclass, field

from .values import INT_MAX, INT_MIN, Value


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


# ---------------------------------------------------------------------------
# AST


@dataclass
class Expr:
    line: int


@dataclass
class Num(Expr):
    value: int


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class Name(Expr):
    id: str


@dataclass
class ListDisplay(Expr):
    elems: list[Expr]


@dataclass
class BinOp(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class Compare(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass
class BoolOp(Expr):
    op: str  # "and" | "or"
    left: Expr
    right: Expr


@dataclass
class NotOp(Expr):
    operand: Expr


@dataclass
class Neg(Expr):
    operand: Expr


@dataclass
class Subscript(Expr):
    obj: Expr
    index: Expr


@dataclass
class LenCall(Expr):
    arg: Expr


@dataclass
class MethodCall(Expr):
    obj: Expr
    method: str  # append | extend | pop
    args: list[Expr]


@dataclass
class Stmt:
    line: int


@dataclass
class FunctionDef(Stmt):
    name: str
    params: list[str]
    body: list[Stmt]


@dataclass
class Return(Stmt):
    value: Expr | None


@dataclass
class Assign(Stmt):
    target: Expr  # Name or Subscript
    value: Expr


@dataclass
class TupleAssign(Stmt):
    targets: list[Name]
    values: list[Expr]


@dataclass
class ExprStmt(Stmt):
    value: Expr


@dataclass
class If(Stmt):
    cond: Expr
    body: list[Stmt]
    orelse: list[Stmt]


@dataclass
class While(Stmt):
    cond: Expr
    body: list[Stmt]


@dataclass
class ForRange(Stmt):
    var: str
    args: list[Expr]  # 1..3 range arguments
    body: list[Stmt]


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


@dataclass
class Module:
    body: list[Stmt]

    def functions(self) -> dict[str, FunctionDef]:
        return {s.name: s for s in self.body if isinstance(s, FunctionDef)}


# ---------------------------------------------------------------------------
# Parser

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
_METHODS = ("append", "extend", "pop")


class _Parser:
    def __init__(self, source: str):
        try:
            raw = list(_tok.generate_tokens(io.StringIO(source).readline))
        except (_tok.TokenError, IndentationError, SyntaxError) as exc:
            raise ParseError(getattr(exc, "lineno", 0) or 0, f"bad token stream: {exc}")
        self.tokens = [
            t for t in raw if t.type not in (_tok.COMMENT, _tok.NL, _tok.ENCODING)
        ]
        self.pos = 0

    # -- token helpers

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, type_: int, string: str | None = None) -> bool:
        tok = self.peek()
        return tok.type == type_ and (string is None or tok.string == string)

    def at_name(self, *strings: str) -> bool:
        tok = self.peek()
        return tok.type == _tok.NAME and tok.string in strings

    def expect(self, type_: int, string: str | None = None):
        tok = self.peek()
        if not self.at(type_, string):
            want = string or _tok.tok_name[type_]
            raise ParseError(tok.start[0], f"expected {want!r}, got {tok.string!r}")
        return self.next()

    def error(self, message: str) -> ParseError:
        return ParseError(self.peek().start[0], message)

    # -- grammar

    def parse_module(self) -> Module:
        body = []
        while not self.at(_tok.ENDMARKER):
            if self.at(_tok.NEWLINE):
                self.next()
                continue
            body.append(self.statement())
        return Module(body)

    def statement(self) -> Stmt:
        tok = self.peek()
        line = tok.start[0]
        if tok.type == _tok.NAME:
            word = tok.string
            if word == "def":
                return self.funcdef()
            if word == "return":
                self.next()
                value = None
                if not self.at(_tok.NEWLINE):
                    value = self.expression()
                self.expect(_tok.NEWLINE)
                return Return(line, value)
            if word == "if":
                return self.if_stmt()
            if word == "while":
                self.next()
                cond = self.expression()
                body = self.block()
                return While(line, cond, body)
            if word == "for":
                return self.for_stmt()
            if word == "break":
                self.next()
                self.expect(_tok.NEWLINE)
                return Break(line)
            if word == "continue":
                self.next()
                self.expect(_tok.NEWLINE)
                return Continue(line)
            if word in ("import", "from", "class", "lambda", "pass", "del", "try",
                        "with", "global", "nonlocal", "assert", "yield", "raise",
                        "elif", "else"):
                raise self.error(f"{word!r} is outside the mini-language")
        return self.simple_stmt()

    def funcdef(self) -> FunctionDef:
        line = self.expect(_tok.NAME, "def").start[0]
        name = self.expect(_tok.NAME).string
        self.expect(_tok.OP, "(")
        params = []
        while not self.at(_tok.OP, ")"):
            params.append(self.expect(_tok.NAME).string)
            if self.at(_tok.OP, ","):
                self.next()
        self.expect(_tok.OP, ")")
        body = self.block()
        return FunctionDef(line, name, params, body)

    def block(self) -> list[Stmt]:
        self.expect(_tok.OP, ":")
        self.expect(_tok.NEWLINE)
        self.expect(_tok.INDENT)
        body = []
        while not self.at(_tok.DEDENT):
            body.append(self.statement())
        self.expect(_tok.DEDENT)
        if not body:
            raise self.error("empty block")
        return body

    def if_stmt(self, keyword: str = "if") -> If:
        line = self.expect(_tok.NAME, keyword).start[0]
        cond = self.expression()
        body = self.block()
        orelse: list[Stmt] = []
        if self.at_name("elif"):
            orelse = [self.if_stmt("elif")]
        elif self.at_name("else"):
            self.next()
            orelse = self.block()
        return If(line, cond, body, orelse)

    def for_stmt(self) -> ForRange:
        line = self.expect(_tok.NAME, "for").start[0]
        var = self.expect(_tok.NAME).string
        self.expect(_tok.NAME, "in")
        self.expect(_tok.NAME, "range")
        self.expect(_tok.OP, "(")
        args = [self.expression()]
        while self.at(_tok.OP, ","):
            self.next()
            args.append(self.expression())
        if len(args) > 3:
            raise self.error("range takes at most 3 arguments")
        self.expect(_tok.OP, ")")
        body = self.block()
        return ForRange(line, var, args, body)

    def simple_stmt(self) -> Stmt:
        line = self.peek().start[0]
        first = self.expression()
        if self.at(_tok.OP, ",") or self.at(_tok.OP, "="):
            targets = [first]
            while self.at(_tok.OP, ","):
                self.next()
                targets.append(self.expression())
            self.expect(_tok.OP, "=")
            values = [self.expression()]
            while self.at(_tok.OP, ","):
                self.next()
                values.append(self.expression())
            self.expect(_tok.NEWLINE)
            if len(targets) == 1:
                target = targets[0]
                if not isinstance(target, (Name, Subscript)):
                    raise ParseError(line, "invalid assignment target")
                return Assign(line, target, values[0])
            if len(targets) != len(values):
                raise ParseError(line, "unbalanced tuple assignment")
            if not all(isinstance(t, Name) for t in targets):
                raise ParseError(line, "tuple assignment targets must be names")
            return TupleAssign(line, targets, values)  # type: ignore[arg-type]
        self.expect(_tok.NEWLINE)
        return ExprStmt(line, first)

    # -- expressions (precedence climbing)

    def expression(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        node = self.and_expr()
        while self.at_name("or"):
            line = self.next().start[0]
            node = BoolOp(line, "or", node, self.and_expr())
        return node

    def and_expr(self) -> Expr:
        node = self.not_expr()
        while self.at_name("and"):
            line = self.next().start[0]
            node = BoolOp(line, "and", node, self.not_expr())
        return node

    def not_expr(self) -> Expr:
        if self.at_name("not"):
            line = self.next().start[0]
            return NotOp(line, self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        node = self.arith()
        if self.at(_tok.OP) and self.peek().string in _CMP_OPS:
            tok = self.next()
            node = Compare(tok.start[0], tok.string, node, self.arith())
            if self.at(_tok.OP) and self.peek().string in _CMP_OPS:
                raise self.error("chained comparisons are not supported")
        return node

    def arith(self) -> Expr:
        node = self.term()
        while self.at(_tok.OP) and self.peek().string in ("+", "-"):
            tok = self.next()
            node = BinOp(tok.start[0], tok.string, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.at(_tok.OP) and self.peek().string in ("*", "//", "%"):
            tok = self.next()
            node = BinOp(tok.start[0], tok.string, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.at(_tok.OP, "-"):
            tok = self.next()
            if self.at(_tok.NUMBER):
                return self.number(self.next(), negate=True)
            return Neg(tok.start[0], self.unary())
        return self.postfix()

    def postfix(self) -> Expr:
        node = self.atom()
        while True:
            if self.at(_tok.OP, "["):
                tok = self.next()
                index = self.expression()
                self.expect(_tok.OP, "]")
                node = Subscript(tok.start[0], node, index)
            elif self.at(_tok.OP, "."):
                tok = self.next()
                method = self.expect(_tok.NAME).string
                if method not in _METHODS:
                    raise ParseError(tok.start[0], f"unknown method {method!r}")
                self.expect(_tok.OP, "(")
                args = []
                while not self.at(_tok.OP, ")"):
                    args.append(self.expression())
                    if self.at(_tok.OP, ","):
                        self.next()
                self.expect(_tok.OP, ")")
                node = MethodCall(tok.start[0], node, method, args)
            else:
                return node

    def number(self, tok, negate: bool = False) -> Num:
        text = tok.string
        try:
            value = int(text)
        except ValueError:
            raise ParseError(tok.start[0], f"only integer literals are supported: {text}")
        return Num(tok.start[0], -value if negate else value)

    def atom(self) -> Expr:
        tok = self.peek()
        line = tok.start[0]
        if tok.type == _tok.NUMBER:
            return self.number(self.next())
        if tok.type == _tok.NAME:
            word = tok.string
            if word in ("True", "False"):
                self.next()
                return BoolLit(line, word == "True")
            if word == "len":
                self.next()
                self.expect(_tok.OP, "(")
                arg = self.expression()
                self.expect(_tok.OP, ")")
                return LenCall(line, arg)
            if word in ("None", "and", "or", "not", "in", "is", "if", "else",
                        "for", "while", "def", "return", "lambda"):
                raise self.error(f"{word!r} cannot start an expression here")
            self.next()
            if self.at(_tok.OP, "("):
                raise ParseError(line, f"calls to {word!r} are outside the mini-language")
            return Name(line, word)
        if tok.type == _tok.OP and tok.string == "(":
            self.next()
            node = self.expression()
            self.expect(_tok.OP, ")")
            return node
        if tok.type == _tok.OP and tok.string == "[":
            self.next()
            elems = []
            while not self.at(_tok.OP, "]"):
                elems.append(self.expression())
                if self.at(_tok.OP, ","):
                    self.next()
            self.expect(_tok.OP, "]")
            return ListDisplay(line, elems)
        if tok.type == _tok.STRING:
            raise self.error("string literals are outside the mini-language")
        raise self.error(f"unexpected token {tok.string!r}")


def parse(source: str) -> Module:
    """Parse mini-language source; raises ParseError outside the language."""
    return _Parser(source).parse_module()


# ---------------------------------------------------------------------------
# Interpreter


@dataclass
class Limits:
    max_steps: int = 10**6
    max_list_len: int = 10**5

    def __post_init__(self) -> None:
        if self.max_steps <= 0 or self.max_list_len <= 0:
            raise ValueError("limits must be positive")


@dataclass
class ExecResult:
    status: str  # "ok" | "error"
    output: Value = None
    covered_lines: set[int] = field(default_factory=set)
    steps: int = 0
    error_kind: str | None = None
    error_line: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _RuntimeFailure(Exception):
    def __init__(self, kind: str):
        self.kind = kind
        super().__init__(kind)


class _ReturnSignal(Exception):
    def __init__(self, value: Value):
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _Interp:
    def __init__(self, limits: Limits):
        self.limits = limits
        self.steps = 0
        self.covered: set[int] = set()
        self.cur_line = 0
        self.env: dict[str, Value] = {}

    def tick(self):
        self.steps += 1
        if self.steps > self.limits.max_steps:
            raise _RuntimeFailure("StepLimitExceeded")

    def check_len(self, lst: list):
        if len(lst) > self.limits.max_list_len:
            raise _RuntimeFailure("ListLimitExceeded")

    def check_int(self, value: Value) -> Value:
        if isinstance(value, int) and not isinstance(value, bool):
            if not INT_MIN <= value <= INT_MAX:
                raise _RuntimeFailure("OverflowError")
        return value

    # -- statements

    def exec_block(self, body: list[Stmt]):
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: Stmt):
        self.tick()
        self.cur_line = stmt.line
        self.covered.add(stmt.line)
        if isinstance(stmt, Return):
            value = self.eval(stmt.value) if stmt.value is not None else None
            raise _ReturnSignal(value)
        if isinstance(stmt, Assign):
            value = self.eval(stmt.value)
            self.assign(stmt.target, value)
            return
        if isinstance(stmt, TupleAssign):
            values = [self.eval(v) for v in stmt.values]
            for target, value in zip(stmt.targets, values):
                self.env[target.id] = value
            return
        if isinstance(stmt, ExprStmt):
            self.eval(stmt.value)
            return
        if isinstance(stmt, If):
            if self.truthy(self.eval(stmt.cond)):
                self.exec_block(stmt.body)
            elif stmt.orelse:
                self.exec_block(stmt.orelse)
            return
        if isinstance(stmt, While):
            while True:
                self.tick()
                self.cur_line = stmt.line
                self.covered.add(stmt.line)
                if not self.truthy(self.eval(stmt.cond)):
                    break
                try:
                    self.exec_block(stmt.body)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            return
        if isinstance(stmt, ForRange):
            args = [self.eval(a) for a in stmt.args]
            for a in args:
                if not isinstance(a, int):
                    raise _RuntimeFailure("TypeError")
            if len(args) == 3 and args[2] == 0:
                raise _RuntimeFailure("ValueError")
            for i in range(*args):
                self.tick()
                self.cur_line = stmt.line
                self.covered.add(stmt.line)
                self.env[stmt.var] = i
                try:
                    self.exec_block(stmt.body)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
            return
        if isinstance(stmt, Break):
            raise _BreakSignal()
        if isinstance(stmt, Continue):
            raise _ContinueSignal()
        if isinstance(stmt, FunctionDef):
            raise _RuntimeFailure("TypeError")  # nested defs unsupported
        raise AssertionError(f"unhandled statement {stmt!r}")

    def assign(self, target: Expr, value: Value):
        if isinstance(target, Name):
            self.env[target.id] = value
            return
        if isinstance(target, Subscript):
            obj = self.eval(target.obj)
            idx = self.eval(target.index)
            if not isinstance(obj, list) or not isinstance(idx, int):
                raise _RuntimeFailure("TypeError")
            if not -len(obj) <= idx < len(obj):
                raise _RuntimeFailure("IndexError")
            obj[idx] = value
            return
        raise _RuntimeFailure("TypeError")

    @staticmethod
    def truthy(value: Value) -> bool:
        return bool(value)

    # -- expressions

    def eval(self, expr: Expr) -> Value:
        self.tick()
        if isinstance(expr, Num):
            return self.check_int(expr.value)
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, Name):
            if expr.id not in self.env:
                raise _RuntimeFailure("NameError")
            return self.env[expr.id]
        if isinstance(expr, ListDisplay):
            return [self.eval(e) for e in expr.elems]
        if isinstance(expr, BinOp):
            return self.binop(expr.op, self.eval(expr.left), self.eval(expr.right))
        if isinstance(expr, Compare):
            return self.compare(expr.op, self.eval(expr.left), self.eval(expr.right))
        if isinstance(expr, BoolOp):
            left = self.eval(expr.left)
            if expr.op == "and":
                return self.eval(expr.right) if self.truthy(left) else left
            return left if self.truthy(left) else self.eval(expr.right)
        if isinstance(expr, NotOp):
            return not self.truthy(self.eval(expr.operand))
        if isinstance(expr, Neg):
            value = self.eval(expr.operand)
            if not isinstance(value, int):
                raise _RuntimeFailure("TypeError")
            return self.check_int(-value)
        if isinstance(expr, Subscript):
            obj = self.eval(expr.obj)
            idx = self.eval(expr.index)
            if not isinstance(obj, list) or not isinstance(idx, int):
                raise _RuntimeFailure("TypeError")
            if not -len(obj) <= idx < len(obj):
                raise _RuntimeFailure("IndexError")
            return obj[idx]
        if isinstance(expr, LenCall):
            value = self.eval(expr.arg)
            if not isinstance(value, list):
                raise _RuntimeFailure("TypeError")
            return len(value)
        if isinstance(expr, MethodCall):
            return self.method_call(expr)
        raise AssertionError(f"unhandled expression {expr!r}")

    def binop(self, op: str, left: Value, right: Value) -> Value:
        both_int = isinstance(left, int) and isinstance(right, int)
        if op in ("//", "%") and both_int and right == 0:
            raise _RuntimeFailure("ZeroDivisionError")
        try:
            if op == "+":
                result = left + right
            elif op == "-":
                result = left - right
            elif op == "*":
                result = left * right
            elif op == "//":
                result = left // right
            else:
                result = left % right
        except TypeError:
            raise _RuntimeFailure("TypeError")
        if isinstance(result, list):
            self.check_len(result)
            return result
        return self.check_int(result)

    @staticmethod
    def compare(op: str, left: Value, right: Value) -> bool:
        try:
            if op == "<":
                return left < right
            if op == "<=":
                return left <= right
            if op == ">":
                return left > right
            if op == ">=":
                return left >= right
        except TypeError:
            raise _RuntimeFailure("TypeError")
        return left == right if op == "==" else left != right

    def method_call(self, expr: MethodCall) -> Value:
        obj = self.eval(expr.obj)
        if not isinstance(obj, list):
            raise _RuntimeFailure("AttributeError")
        args = [self.eval(a) for a in expr.args]
        if expr.method == "append":
            if len(args) != 1:
                raise _RuntimeFailure("TypeError")
            obj.append(args[0])
            self.check_len(obj)
            return None
        if expr.method == "extend":
            if len(args) != 1 or not isinstance(args[0], list):
                raise _RuntimeFailure("TypeError")
            obj.extend(list(args[0]))
            self.check_len(obj)
            return None
        # pop
        if len(args) > 1:
            raise _RuntimeFailure("TypeError")
        if not obj:
            raise _RuntimeFailure("IndexError")
        if args:
            idx = args[0]
            if not isinstance(idx, int):
                raise _RuntimeFailure("TypeError")
            if not -len(obj) <= idx < len(obj):
                raise _RuntimeFailure("IndexError")
            return obj.pop(idx)
        return obj.pop()


def interpret(
    program: Module,
    args: tuple,
    limits: Limits | None = None,
    function_name: str | None = None,
) -> ExecResult:
    """Run a function from the parsed module on an argument tuple.

    All runtime failures (out-of-range indexing, pop from empty, division by
    zero, overflow past 64-bit bounds, step/list limits) are reported in the
    result, never raised.
    """
    limits = limits or Limits()
    functions = program.functions()
    if not functions:
        return ExecResult("error", error_kind="NameError", error_line=0)
    if function_name is None:
        fn = next(iter(functions.values()))
    elif function_name in functions:
        fn = functions[function_name]
    else:
        return ExecResult("error", error_kind="NameError", error_line=0)
    if len(fn.params) != len(args):
        return ExecResult("error", error_kind="TypeError", error_line=fn.line)

    interp = _Interp(limits)
    interp.env = dict(zip(fn.params, copy.deepcopy(list(args))))
    try:
        interp.exec_block(fn.body)
        output = None  # fell off the end without a return
        status = "ok"
    except _ReturnSignal as ret:
        output = ret.value
        status = "ok"
    except _RuntimeFailure as failure:
        return ExecResult(
            "error",
            covered_lines=interp.covered,
            steps=interp.steps,
            error_kind=failure.kind,
            error_line=interp.cur_line,
        )
    except (_BreakSignal, _ContinueSignal):
        return ExecResult(
            "error",
            covered_lines=interp.covered,
            steps=interp.steps,
            error_kind="SyntaxError",
            error_line=interp.cur_line,
        )
    return ExecResult("ok", output, interp.covered, interp.steps)
