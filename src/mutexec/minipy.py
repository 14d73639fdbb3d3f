"""Parser and interpreter of the builtin executor's language.

The language is the shapes the translator emits, plus the tokens mutation
swaps into them.  A module is one or more ``def``s with positional
parameters.  Their bodies hold assignment (to a name, to a subscript, or of
a tuple of values to names), expression statements, ``return``,
``if``/``elif``/``else`` and ``for``/``range`` loops.  Expressions are
integer and boolean literals, names, list displays, ``+ - * // %``, unary
``-``, comparisons (``< <= > >= == !=``, not chained), ``and``/``or``/``not``,
indexing with negative indices, ``len`` and the list methods
``append``/``extend``/``pop``.  Each statement lies on one line, and no tree
is more than ``MAX_DEPTH`` nodes deep.  ``parse`` raises ParseError on any
other text, at the 1-based line where it stopped: on ``while``, ``break``
and ``continue``, a module-level statement other than a ``def``, a ``def``
in a body, a statement that spans lines, a tab, a form feed or a CR outside
a CRLF, and anything the list above lacks (strings, dicts, calls, imports,
...).  The parser accepts only Python: it reads commas in a bracketed list
and keywords as CPython does, and refuses a repeated parameter name.  A
statement node carries its line; an expression node carries none.

Source is lexed by one compiled regular expression plus a line loop into
plain ``(kind, string, line, start)`` tuples, the same stream the standard
library's ``tokenize`` gives without its COMMENT and NL tokens, and parsed by
recursive descent with precedence climbing for the operators.  The same
scanner finds the mutation sites of ``mutate``, which splices a mutant at a
token's ``start`` offset, in any text that CPython compiles, so it reads
more than the language: strings, every operator, brackets and backslashes
across lines, tabs and form feeds.  On text that CPython does not compile
it may stop at any line, or give tokens that the parser refuses.

Execution is deterministic big-step interpretation, and a node's class is
its dispatch: an expression's ``eval(it)`` returns its value and a
statement's ``run(it)`` executes it, against ``it``, the state of one call
(its variables, steps, covered lines and the current line).  Runtime behavior
matches the host Python semantics (negative indexing, floor division and
modulo on negatives, short-circuit boolean operators, aliasing of list
values), so that a result equals a real Python executor's.  Every executed
statement or loop header records its 1-based source line in the coverage
set.  ``steps`` counts the line events CPython's line tracer reports for the
same call: one when a statement starts and one at each loop back-edge.
Three limits bound a run, and are where a program of the language may
differ from CPython: ``Limits.max_steps`` (``StepLimitExceeded``; every loop
iteration passes a back-edge, so it ends every infinite loop),
``Limits.max_list_len`` (``ListLimitExceeded``) and 64-bit integers
(``OverflowError``).
"""

from __future__ import annotations

import operator
import re
from keyword import iskeyword
from typing import Callable

from .values import INT_MAX, INT_MIN, Value, copy_value


class ParseError(Exception):
    """Source outside the language; ``line`` is where the parser stopped."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


# ---------------------------------------------------------------------------
# AST
#
# Plain classes with ``__slots__``: a node's fields are the slots down its
# class chain, in order.  The repr is a dataclass's, field by field (the
# lexer corpus's pinned digest hashes these reprs).


class _Node:
    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for cls in reversed(type(self).__mro__)
            for name in cls.__dict__.get("__slots__", ())
        )
        return f"{type(self).__qualname__}({fields})"


class Expr(_Node):
    __slots__ = ()


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def eval(self, it: _Interp) -> Value:
        return it.check_int(self.value)


class BoolLit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        self.value = value

    def eval(self, it: _Interp) -> Value:
        return self.value


class Name(Expr):
    __slots__ = ("id",)

    def __init__(self, id: str):
        self.id = id

    def eval(self, it: _Interp) -> Value:
        if self.id not in it.env:
            raise _RuntimeFailure("NameError")
        return it.env[self.id]


class ListDisplay(Expr):
    __slots__ = ("elems",)

    def __init__(self, elems: list[Expr]):
        self.elems = elems

    def eval(self, it: _Interp) -> Value:
        return [e.eval(it) for e in self.elems]


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def eval(self, it: _Interp) -> Value:
        left = self.left.eval(it)
        right = self.right.eval(it)
        both_int = isinstance(left, int) and isinstance(right, int)
        if self.op in ("//", "%") and both_int and right == 0:
            raise _RuntimeFailure("ZeroDivisionError")
        try:
            result = _ARITHMETIC[self.op](left, right)
        except TypeError:
            raise _RuntimeFailure("TypeError")
        if isinstance(result, list):
            it.check_len(result)
            return result
        return it.check_int(result)


class Compare(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def eval(self, it: _Interp) -> Value:
        left = self.left.eval(it)
        right = self.right.eval(it)
        try:
            return _COMPARISONS[self.op](left, right)
        except TypeError:
            raise _RuntimeFailure("TypeError")


class BoolOp(Expr):
    __slots__ = ("op", "left", "right")  # op: "and" | "or"

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op
        self.left = left
        self.right = right

    def eval(self, it: _Interp) -> Value:
        left = self.left.eval(it)
        if self.op == "and":
            return self.right.eval(it) if left else left
        return left if left else self.right.eval(it)


class NotOp(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def eval(self, it: _Interp) -> Value:
        return not self.operand.eval(it)


class Neg(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def eval(self, it: _Interp) -> Value:
        value = self.operand.eval(it)
        if not isinstance(value, int):
            raise _RuntimeFailure("TypeError")
        return it.check_int(-value)


class Subscript(Expr):
    __slots__ = ("obj", "index")

    def __init__(self, obj: Expr, index: Expr):
        self.obj = obj
        self.index = index

    def eval(self, it: _Interp) -> Value:
        obj = self.obj.eval(it)
        return obj[_index(obj, self.index.eval(it))]


class LenCall(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg

    def eval(self, it: _Interp) -> Value:
        value = self.arg.eval(it)
        if not isinstance(value, list):
            raise _RuntimeFailure("TypeError")
        return len(value)


class MethodCall(Expr):
    __slots__ = ("obj", "method", "args")  # method: append | extend | pop

    def __init__(self, obj: Expr, method: str, args: list[Expr]):
        self.obj = obj
        self.method = method
        self.args = args

    def eval(self, it: _Interp) -> Value:
        obj = self.obj.eval(it)
        if not isinstance(obj, list):
            raise _RuntimeFailure("AttributeError")
        args = [a.eval(it) for a in self.args]
        if self.method == "append":
            if len(args) != 1:
                raise _RuntimeFailure("TypeError")
            obj.append(args[0])
            it.check_len(obj)
            return None
        if self.method == "extend":
            if len(args) != 1 or not isinstance(args[0], list):
                raise _RuntimeFailure("TypeError")
            obj.extend(list(args[0]))
            it.check_len(obj)
            return None
        # pop
        if len(args) > 1:
            raise _RuntimeFailure("TypeError")
        if not obj:
            raise _RuntimeFailure("IndexError")
        return obj.pop(_index(obj, args[0])) if args else obj.pop()


class Stmt(_Node):
    __slots__ = ("line",)

    def __init__(self, line: int):
        self.line = line


class FunctionDef(_Node):
    __slots__ = ("line", "name", "params", "body")

    def __init__(self, line: int, name: str, params: list[str], body: list[Stmt]):
        self.line = line
        self.name = name
        self.params = params
        self.body = body


class Return(Stmt):
    __slots__ = ("value",)

    def __init__(self, line: int, value: Expr | None):
        self.line = line
        self.value = value

    def run(self, it: _Interp):
        raise _ReturnSignal(None if self.value is None else self.value.eval(it))


class Assign(Stmt):
    __slots__ = ("target", "value")  # target: Name or Subscript

    def __init__(self, line: int, target: Expr, value: Expr):
        self.line = line
        self.target = target
        self.value = value

    def run(self, it: _Interp):
        value = self.value.eval(it)
        target = self.target
        if isinstance(target, Name):
            it.env[target.id] = value
        else:
            obj = target.obj.eval(it)
            obj[_index(obj, target.index.eval(it))] = value


class TupleAssign(Stmt):
    __slots__ = ("targets", "values")

    def __init__(self, line: int, targets: list[Name], values: list[Expr]):
        self.line = line
        self.targets = targets
        self.values = values

    def run(self, it: _Interp):
        values = [v.eval(it) for v in self.values]
        for target, value in zip(self.targets, values):
            it.env[target.id] = value


class ExprStmt(Stmt):
    __slots__ = ("value",)

    def __init__(self, line: int, value: Expr):
        self.line = line
        self.value = value

    def run(self, it: _Interp):
        self.value.eval(it)


class If(Stmt):
    __slots__ = ("cond", "body", "orelse")

    def __init__(self, line: int, cond: Expr, body: list[Stmt], orelse: list[Stmt]):
        self.line = line
        self.cond = cond
        self.body = body
        self.orelse = orelse

    def run(self, it: _Interp):
        if self.cond.eval(it):
            it.exec_block(self.body)
        elif self.orelse:
            it.exec_block(self.orelse)


class ForRange(Stmt):
    __slots__ = ("var", "args", "body")  # args: 1..3 range arguments

    def __init__(self, line: int, var: str, args: list[Expr], body: list[Stmt]):
        self.line = line
        self.var = var
        self.args = args
        self.body = body

    def run(self, it: _Interp):
        args = [a.eval(it) for a in self.args]
        for a in args:
            if not isinstance(a, int):
                raise _RuntimeFailure("TypeError")
        if len(args) == 3 and args[2] == 0:
            raise _RuntimeFailure("ValueError")
        for i in range(*args):
            it.env[self.var] = i
            it.exec_block(self.body)
            it.tick(self.line)  # the back-edge to the header


class Module(_Node):
    __slots__ = ("body",)

    def __init__(self, body: list[FunctionDef]):
        self.body = body

    def functions(self) -> dict[str, FunctionDef]:
        return {fn.name: fn for fn in self.body}


# ---------------------------------------------------------------------------
# Lexer
#
# One compiled regular expression cuts the text where the standard library's
# ``tokenize`` cuts it, and the scanner adds tokenize's line logic around it:
# blank and comment-only lines, bracket nesting (no NEWLINE or INDENT/DEDENT
# inside brackets), backslash continuation, tab stops of 8 in indentation,
# and the empty NEWLINE after a last line that has no line break.  It reads
# the text that CPython compiles; on other text it may stop at any line, or
# give tokens that the parser refuses.  Tokens are plain
# ``(kind, string, line, start)`` tuples, ``start`` being the offset of the
# token in the text; comments and non-logical line breaks produce none.
# Characters that start no token become ERRORTOKEN tokens, as in tokenize:
# in text that compiles, only a CR outside a CRLF, which CPython reads as a
# line break and tokenize does not.

NAME, NUMBER, OP, NEWLINE, INDENT, DEDENT, STRING, ERRORTOKEN, ENDMARKER = range(9)
KIND_NAMES = (
    "NAME", "NUMBER", "OP", "NEWLINE", "INDENT", "DEDENT", "STRING",
    "ERRORTOKEN", "ENDMARKER",
)

_OPERATORS = (
    "!=", "%", "%=", "&", "&=", "(", ")", "*", "**", "**=", "*=", "+", "+=",
    ",", "-", "-=", "->", ".", "...", "/", "//", "//=", "/=", ":", ":=", ";",
    "<", "<<", "<<=", "<=", "=", "==", ">", ">=", ">>", ">>=", "@", "@=",
    "[", "]", "^", "^=", "{", "|", "|=", "}", "~",
)
_DIGITS = r"[0-9](?:_?[0-9])*"
_FLOAT = (rf"(?:{_DIGITS}\.(?:{_DIGITS})?|\.{_DIGITS})(?:[eE][-+]?{_DIGITS})?"
          rf"|{_DIGITS}[eE][-+]?{_DIGITS}")
_NUMBER = (rf"{_DIGITS}[jJ]|(?:{_FLOAT})[jJ]|{_FLOAT}"
           r"|0[xX](?:_?[0-9a-fA-F])+|0[bB](?:_?[01])+|0[oO](?:_?[0-7])+"
           r"|0(?:_?0)*|[1-9](?:_?[0-9])*")
# One alternative per kind of token, after the blanks before it; the group
# that matched is ``match.lastindex``.  Where two alternatives can match at
# one place, tokenize's order decides: a string before a name (``rb'x'``), a
# number before an operator (``.5``), a longer operator before its prefix.
# The lookaheads only skip alternatives that cannot match there.  Patterns
# are compiled on first use (``re`` caches them), so a process that never
# parses does not pay for compiling them.
_G_STRING, _G_NAME, _G_NUMBER, _G_OP, _G_NEWLINE, _G_COMMENT, _G_BACKSLASH, \
    _G_WORD, _G_OTHER = range(1, 10)
_TOKEN = (
    r"[ \f\t]*(?:"
    r"(?=[bBrRuUfF'\"])((?:[bB][rR]?|[rR][bBfF]?|[uU]|[fF][rR]?)?(?:'''|\"\"\"|'|\"))"
    r"|([A-Za-z_]\w*)"
    rf"|(?=[0-9.])({_NUMBER})"
    "|(" + "|".join(map(re.escape, sorted(_OPERATORS, reverse=True))) + ")"
    r"|(\r?\n)"
    r"|(#[^\r\n]*)"
    r"|(\\\r?\n)"  # backslash continuation
    r"|(\w+)"  # a word that starts with no ASCII letter: a name if Unicode says so
    r"|(.)"  # a character that starts no token
    r"|\Z)"
)
# The rest of a string literal after its opening quotes.  A one-quote
# string runs past the end of a line only after a backslash.
_STRING_REST = {
    "'''": r"(?s)[^'\\]*(?:(?:\\.|'(?!''))[^'\\]*)*'''",
    '"""': r'(?s)[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*"""',
    "'": r"(?s)[^\n'\\]*(?:\\(?:\r\n|.)[^\n'\\]*)*'",
    '"': r'(?s)[^\n"\\]*(?:\\(?:\r\n|.)[^\n"\\]*)*"',
}
Token = tuple[int, str, int, int]  # kind, string, line, start offset
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")


def _column(indent: str) -> int:
    column = 0
    for char in indent:
        if char == " ":
            column += 1
        elif char == "\t":
            column = (column // 8 + 1) * 8
        else:  # form feed
            column = 0
    return column


def _open_last_line(source: str) -> bool:
    """Whether the text ends in a line with no line break that is not a
    comment, which tokenize closes with an empty NEWLINE."""
    last = source[source.rfind("\n") + 1:]
    return last != "" and last[-1] != "\r" and not last.strip().startswith("#")


def _scan(source: str) -> list[Token]:
    """The token stream of ``source`` as ``(kind, string, line, start)``
    tuples: on text that ``compile`` accepts, that of Python 3.11's
    ``tokenize`` without its COMMENT and NL tokens.

    On other text it may give tokens that the parser refuses, or raise
    ParseError: at an unindent to no enclosing level, at a string literal
    that does not end, and at a backslash continuation that ends the text.
    """
    tokens: list[Token] = []
    append = tokens.append
    size = len(source)
    pos = 0
    line = 1
    depth = 0  # bracket nesting; a closer without an opener takes it below 0
    indents = [0]
    bol = True  # at the start of a logical line
    token = re.compile(_TOKEN)
    while True:  # one pass per stretch of text between string literals
        for found in token.finditer(source, pos):
            group = found.lastindex
            if bol:  # a blank or comment line, or the indentation of a line
                if group == _G_NEWLINE:
                    line += 1
                    continue
                if group is None:
                    if found.start() == size and _open_last_line(source):
                        append((NEWLINE, "", line - 1, size))
                    break
                # tokenize skips a line that starts with a comment or a "\r"
                if group == _G_COMMENT or found[group] == "\r":
                    newline = source.find("\n", found.end())
                    line += 1
                    pos = size if newline < 0 else newline + 1
                    break
                indent = source[found.start():found.start(group)]
                column = len(indent) if indent.count(" ") == len(indent) else _column(indent)
                if column > indents[-1]:
                    indents.append(column)
                    append((INDENT, indent, line, found.start()))
                else:
                    while column < indents[-1]:
                        indents.pop()
                        append((DEDENT, "", line, found.start(group)))
                    if column != indents[-1]:
                        raise ParseError(line, "unindent does not match any outer "
                                         "indentation level")
                bol = False
            # the token itself
            if group == _G_NAME:
                append((NAME, found[group], line, found.start(group)))
            elif group == _G_OP:
                text = found[group]
                if text in _OPENERS:
                    depth += 1
                elif text in _CLOSERS:
                    depth -= 1
                append((OP, text, line, found.start(group)))
            elif group == _G_NUMBER:
                append((NUMBER, found[group], line, found.start(group)))
            elif group == _G_NEWLINE:
                if depth <= 0:
                    append((NEWLINE, found[group], line, found.start(group)))
                    bol = True
                line += 1
            elif group is None:  # end of the text
                if _open_last_line(source):
                    append((NEWLINE, "", line, size))
                line += 1
                break
            elif group == _G_BACKSLASH:
                if found.end() == size:
                    raise ParseError(line, "unexpected end of text after a backslash")
                line += 1
            elif group == _G_STRING:
                begin = found.start(group)
                rest = re.compile(_STRING_REST[found[group].lstrip("bBrRuUfF")])
                literal = rest.match(source, found.end())
                if literal is None:
                    raise ParseError(line, "unterminated string literal")
                pos = literal.end()
                append((STRING, source[begin:pos], line, begin))
                line += source.count("\n", begin, pos)
                break
            elif group == _G_WORD:
                text = found[group]
                append((NAME if text[0].isidentifier() else ERRORTOKEN, text, line,
                        found.start(group)))
            elif group == _G_OTHER:
                append((ERRORTOKEN, found[group], line, found.start(group)))
        if group is None:
            break
    for _ in indents[1:]:
        append((DEDENT, "", line, size))
    append((ENDMARKER, "", line, size))
    return tokens


# ---------------------------------------------------------------------------
# Parser

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")
_METHODS = ("append", "extend", "pop")
_CLOSERS_OF = {"(": ")", "[": "]"}
# Binding power of each binary operator; ``not`` binds at 3, between ``and``
# and the comparisons, and unary ``-`` at 7, above them all.  A token's
# string alone identifies these: no other kind of token can read "or", "<"
# or "+".
_BINARY = {
    "or": 1, "and": 2,
    "<": 4, "<=": 4, ">": 4, ">=": 4, "==": 4, "!=": 4,
    "+": 5, "-": 5,
    "*": 6, "//": 6, "%": 6,
}
_NOT = 3
_COMPARE = 4
_NEG = 7
# The deepest tree the parser builds, in nodes on a path from a ``def``
# down, a parenthesized expression counting as one.  Translations of
# depth-5 terms and their mutants reach 8 (1,538 trees: the small corpus and
# a seed-3 build); at 50 the parser and the interpreter stay within a few
# hundred stack frames.
MAX_DEPTH = 50


class _Parser:
    """Recursive descent over the token tuples, with precedence climbing for
    the operators.  Operators and keywords are matched on the token's
    string, which the lexer makes unique to its kind.  A name is a NAME
    token that is not a keyword of the running Python, and a bracketed list
    is read as CPython reads one: a comma between two items and an optional
    one after the last.  ``level`` is the tree level of the node being read,
    a ``def`` being at 1; the expression methods return a node with its
    depth, so that a node an operator takes as its left operand, one level
    further down, is measured again."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.level = 1

    # -- token helpers

    def at(self, string: str) -> bool:
        return self.tokens[self.pos][1] == string

    def expect(self, string: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[1] != string:
            raise ParseError(tok[2], f"expected {string!r}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def expect_kind(self, kind: int) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(tok[2], f"expected {KIND_NAMES[kind]!r}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def end(self, line: int) -> None:
        """The NEWLINE that ends the statement or block header begun at
        ``line``, on that line."""
        if self.expect_kind(NEWLINE)[2] != line:
            raise ParseError(line, "a statement that spans lines")

    def error(self, message: str) -> ParseError:
        return ParseError(self.tokens[self.pos][2], message)

    def within(self, depth: int) -> int:
        """``depth``, that of a node at ``level``, if the tree then stays
        within MAX_DEPTH."""
        if self.level + depth - 1 > MAX_DEPTH:
            raise self.error(f"nested more than {MAX_DEPTH} levels deep")
        return depth

    def name(self) -> str:
        kind, word, line, _ = self.tokens[self.pos]
        if kind != NAME or iskeyword(word):
            raise ParseError(line, f"expected a name, got {word!r}")
        self.pos += 1
        return word

    def items(self, opener: str, item: Callable) -> list:
        """The ``item``s between ``opener`` and its closer."""
        tokens = self.tokens
        self.expect(opener)
        closer = _CLOSERS_OF[opener]
        out = []
        while tokens[self.pos][1] != closer:
            out.append(item())
            if tokens[self.pos][1] != ",":
                break
            self.pos += 1
        self.expect(closer)
        return out

    def arguments(self, opener: str) -> tuple[list[Expr], int]:
        """The expressions between ``opener`` and its closer, and the depth
        of the deepest (0 for none)."""
        pairs = self.items(opener, self.expression)
        return [node for node, _ in pairs], max((depth for _, depth in pairs), default=0)

    def expressions(self) -> list[Expr]:
        """Expressions between commas, outside brackets."""
        tokens = self.tokens
        out = [self.expression()[0]]
        while tokens[self.pos][1] == ",":
            self.pos += 1
            out.append(self.expression()[0])
        return out

    # -- grammar

    def parse_module(self) -> Module:
        body = []
        while True:
            kind, word, line, _ = self.tokens[self.pos]
            if kind == ENDMARKER:
                return Module(body)
            if kind == NEWLINE:
                self.pos += 1
            elif word == "def":
                body.append(self.funcdef())
            else:
                raise ParseError(line, "a module-level statement other than a def")

    def statement(self) -> Stmt:
        """A statement in a block, where a ``def`` is refused as a keyword
        in the place of a name."""
        word, line = self.tokens[self.pos][1:3]
        if word == "return":
            self.pos += 1
            value = None
            if self.tokens[self.pos][0] != NEWLINE:
                value = self.expression()[0]
            self.end(line)
            return Return(line, value)
        if word == "if":
            return self.if_stmt()
        if word == "for":
            return self.for_stmt()
        return self.simple_stmt()

    def funcdef(self) -> FunctionDef:
        line = self.expect("def")[2]
        name = self.name()
        params = self.items("(", self.name)
        if len(set(params)) < len(params):
            raise ParseError(line, "duplicate parameter name")
        return FunctionDef(line, name, params, self.block(line))

    def block(self, line: int) -> list[Stmt]:
        """The block of the header begun at ``line``, one level below it."""
        self.expect(":")
        self.end(line)
        self.expect_kind(INDENT)
        self.level += 1
        body = []
        while self.tokens[self.pos][0] != DEDENT:
            body.append(self.statement())
        self.pos += 1
        self.level -= 1
        return body

    def if_stmt(self, keyword: str = "if") -> If:
        line = self.expect(keyword)[2]
        cond = self.expression()[0]
        body = self.block(line)
        orelse: list[Stmt] = []
        if self.at("elif"):
            self.level += 1  # the one statement of the else branch
            orelse = [self.if_stmt("elif")]
            self.level -= 1
        elif self.at("else"):
            orelse = self.block(self.expect("else")[2])
        return If(line, cond, body, orelse)

    def for_stmt(self) -> ForRange:
        line = self.expect("for")[2]
        var = self.name()
        self.expect("in")
        self.expect("range")
        args = self.arguments("(")[0]
        if not 1 <= len(args) <= 3:
            raise self.error("range takes 1 to 3 arguments")
        return ForRange(line, var, args, self.block(line))

    def simple_stmt(self) -> Stmt:
        line = self.tokens[self.pos][2]
        targets = self.expressions()
        if len(targets) == 1 and self.tokens[self.pos][1] != "=":
            self.end(line)
            return ExprStmt(line, targets[0])
        self.expect("=")
        values = self.expressions()
        self.end(line)
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

    # -- expressions

    def expression(self, floor: int = 1) -> tuple[Expr, int]:
        """An expression one level below ``level`` whose binary operators
        bind at least as tightly as ``floor``, and its depth; operators of
        one binding power group to the left."""
        tokens = self.tokens
        self.level += 1
        self.within(1)
        string = tokens[self.pos][1]
        if string == "not" and floor <= _NOT:
            self.pos += 1
            operand, depth = self.expression(_NOT)
            node, depth = NotOp(operand), depth + 1
        elif string == "-":
            self.pos += 1
            if tokens[self.pos][0] == NUMBER:
                self.pos += 1
                node, depth = self.number(tokens[self.pos - 1], negate=True), 1
            else:
                operand, depth = self.expression(_NEG)
                node, depth = Neg(operand), depth + 1
        else:
            node, depth = self.primary()
        while True:
            string = tokens[self.pos][1]
            power = _BINARY.get(string)
            if power is None or power < floor:
                self.level -= 1
                return node, depth
            self.pos += 1
            if power == _COMPARE:
                right, inner = self.expression(_COMPARE + 1)
                node = Compare(string, node, right)
                if tokens[self.pos][1] in _CMP_OPS:
                    raise self.error("chained comparisons are not supported")
            else:
                right, inner = self.expression(power + 1)
                node = (BoolOp if power < _NOT else BinOp)(string, node, right)
            depth = self.within(max(depth, inner) + 1)

    def number(self, tok: Token, negate: bool = False) -> Num:
        _, text, line, _ = tok
        try:
            value = int(text)
        except ValueError:
            raise ParseError(line, f"only integer literals are supported: {text}")
        return Num(-value if negate else value)

    def primary(self) -> tuple[Expr, int]:
        """An atom and the subscripts and method calls after it, and its
        depth."""
        tokens = self.tokens
        tok = tokens[self.pos]
        kind, word, line, _ = tok
        depth = 1
        if kind == NAME:
            if word == "True" or word == "False":
                self.pos += 1
                node = BoolLit(word == "True")
            elif word == "len":
                self.pos += 1
                self.expect("(")
                arg, depth = self.expression()
                node, depth = LenCall(arg), depth + 1
                self.expect(")")
            else:
                self.name()
                if tokens[self.pos][1] == "(":
                    raise ParseError(line, f"calls to {word!r} are outside the mini-language")
                node = Name(word)
        elif kind == NUMBER:
            self.pos += 1
            node = self.number(tok)
        elif word == "(":
            self.pos += 1
            node, depth = self.expression()
            depth += 1  # the parentheses are a level of their own
            self.expect(")")
        elif word == "[":
            elems, depth = self.arguments("[")
            node, depth = ListDisplay(elems), depth + 1
        elif kind == STRING:
            raise self.error("string literals are outside the mini-language")
        elif kind == ERRORTOKEN:
            raise self.error(f"unexpected character {word!r}")
        else:
            raise self.error(f"unexpected token {word!r}")
        while True:
            string = tokens[self.pos][1]
            if string == "[":
                self.pos += 1
                index, inner = self.expression()
                self.expect("]")
                node = Subscript(node, index)
            elif string == ".":
                line = tokens[self.pos][2]
                self.pos += 1
                method = self.name()
                if method not in _METHODS:
                    raise ParseError(line, f"unknown method {method!r}")
                args, inner = self.arguments("(")
                node = MethodCall(node, method, args)
            else:
                return node, depth
            depth = self.within(max(depth, inner) + 1)


def parse(source: str) -> Module:
    """Parse a program of the language; on any other text, raise ParseError
    at the line where the scanner or the parser stopped, or at the first
    tab, form feed or CR outside a CRLF, which the language does not hold."""
    blank = re.search(r"[\t\f]|\r(?!\n)", source)
    if blank is not None:
        raise ParseError(source.count("\n", 0, blank.start()) + 1,
                         f"{blank[0]!r} is outside the mini-language")
    return _Parser(_scan(source)).parse_module()


# ---------------------------------------------------------------------------
# Interpreter


class Limits:
    __slots__ = ("max_steps", "max_list_len")

    def __init__(self, max_steps: int = 10**6, max_list_len: int = 10**5):
        if max_steps <= 0 or max_list_len <= 0:
            raise ValueError("limits must be positive")
        self.max_steps = max_steps
        self.max_list_len = max_list_len


_DEFAULT_LIMITS = Limits()


class ExecResult:
    __slots__ = ("status", "output", "covered_lines", "steps", "error_kind", "error_line")

    def __init__(self, status: str, output: Value = None,
                 covered_lines: set[int] | None = None, steps: int | None = 0,
                 error_kind: str | None = None, error_line: int | None = None):
        self.status = status  # "ok" | "error"
        self.output = output
        self.covered_lines = set() if covered_lines is None else covered_lines
        self.steps = steps  # None: an external child did not report it
        self.error_kind = error_kind
        self.error_line = error_line


class _RuntimeFailure(Exception):
    def __init__(self, kind: str):
        self.kind = kind
        super().__init__(kind)


class _ReturnSignal(Exception):
    def __init__(self, value: Value):
        self.value = value


_ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "//": operator.floordiv, "%": operator.mod,
}
_COMPARISONS = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
    "==": operator.eq, "!=": operator.ne,
}


def _index(obj: Value, idx: Value) -> int:
    """``idx`` as an index into the list ``obj``, negative ones included."""
    if not isinstance(obj, list) or not isinstance(idx, int):
        raise _RuntimeFailure("TypeError")
    if not -len(obj) <= idx < len(obj):
        raise _RuntimeFailure("IndexError")
    return idx


class _Interp:
    """The state of one call, which each node's ``eval`` or ``run`` reads."""

    __slots__ = ("limits", "steps", "covered", "cur_line", "env")

    def __init__(self, limits: Limits, env: dict[str, Value]):
        self.limits = limits
        self.steps = 0
        self.covered: set[int] = set()
        self.cur_line = 0
        self.env = env

    def tick(self, line: int):
        """One line event, as CPython's line tracer counts them: a statement
        starts at ``line``, or a loop body ends and control goes back to its
        header at ``line``."""
        self.steps += 1
        if self.steps > self.limits.max_steps:
            raise _RuntimeFailure("StepLimitExceeded")
        self.cur_line = line

    def check_len(self, lst: list):
        if len(lst) > self.limits.max_list_len:
            raise _RuntimeFailure("ListLimitExceeded")

    def check_int(self, value: Value) -> Value:
        if isinstance(value, int) and not isinstance(value, bool):
            if not INT_MIN <= value <= INT_MAX:
                raise _RuntimeFailure("OverflowError")
        return value

    def exec_block(self, body: list[Stmt]):
        for stmt in body:
            self.tick(stmt.line)
            self.covered.add(stmt.line)
            stmt.run(self)



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
    functions = program.functions()
    if function_name is None:
        fn = next(iter(functions.values()), None)
    else:
        fn = functions.get(function_name)
    if fn is None:
        return ExecResult("error", error_kind="NameError", error_line=0)
    if len(fn.params) != len(args):
        return ExecResult("error", error_kind="TypeError", error_line=0)

    interp = _Interp(limits or _DEFAULT_LIMITS, dict(zip(fn.params, copy_value(list(args)))))
    try:
        interp.exec_block(fn.body)
        output = None  # fell off the end without a return
    except _ReturnSignal as ret:
        output = ret.value
    except _RuntimeFailure as failure:
        return ExecResult("error", covered_lines=interp.covered, steps=interp.steps,
                          error_kind=failure.kind, error_line=interp.cur_line)
    return ExecResult("ok", output, interp.covered, interp.steps)
