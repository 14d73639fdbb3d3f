"""Parser and interpreter for the imperative mini-language.

The language is the syntactic subset of Python that the translator emits,
plus the vocabulary mutation operators can introduce: integer/boolean
literals, list displays, arithmetic (``+ - * // %``), comparisons
(``< <= > >= == !=``), ``and``/``or``/``not``, indexing with negative
indices, ``len``, the list methods ``append``/``extend``/``pop``,
``for``/``range`` loops, ``while`` loops, ``if``/``elif``/``else``,
``break``/``continue``, assignment (including tuple assignment and
subscript targets), and ``return``.  Everything else is a syntax error.

Source is lexed by one compiled regular expression plus a line loop into
plain ``(kind, string, line, start)`` tuples, the same stream the standard
library's ``tokenize`` gives without its COMMENT and NL tokens, and parsed by
recursive descent with precedence climbing for the operators.  The parser
accepts only Python: it reads commas in a bracketed list and keywords as
CPython does, and refuses a repeated parameter name.  As CPython's tokenizer
does, the scanner refuses a 201st open bracket; as its compiler does,
``parse`` refuses a ``return`` outside a ``def``, and a ``break`` or
``continue`` outside a loop of its own ``def``, once the whole text parses.
The same scanner finds the mutation sites of ``mutate``, which splices a
mutant at a token's ``start`` offset.  A ParseError carries the 1-based line of the offending
token; at the end of the text inside brackets it names the line of the
innermost open bracket.  Its ``kind`` is the class of CPython's error there,
so faults of indentation are IndentationErrors or TabErrors.  A statement
node carries its line; an expression node carries none.

Execution is deterministic big-step interpretation, and a node's class is
its dispatch: an expression's ``eval(it)`` returns its value and a
statement's ``run(it)`` executes it, against ``it``, the state of one call
(its variables, steps, covered lines and the current line).  Runtime behavior
deliberately matches the host Python semantics (negative indexing, floor
division and modulo on negatives, short-circuit boolean operators,
aliasing of list values) so that results are directly comparable with a
real Python executor.  Every executed statement or loop/branch header
records its 1-based source line in the coverage set.  ``steps`` counts the
line events CPython's line tracer reports for the same call: one when a
statement starts and one at each loop back-edge (a body that ends normally
or by ``continue``).  ``Limits.max_steps`` bounds that count; every loop
iteration passes a back-edge, so it ends every infinite loop.
"""

from __future__ import annotations

import operator
import re
from keyword import iskeyword
from typing import Callable

from .values import INT_MAX, INT_MIN, MAX_NESTING, Value, copy_value


class ParseError(Exception):
    """Source outside the language at ``line``; ``kind`` names the class of
    CPython's error there (a SyntaxError, IndentationError or TabError)."""

    def __init__(self, line: int, message: str, kind: str = "SyntaxError"):
        self.line = line
        self.message = message
        self.kind = kind
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


class FunctionDef(Stmt):
    __slots__ = ("name", "params", "body")

    def __init__(self, line: int, name: str, params: list[str], body: list[Stmt]):
        self.line = line
        self.name = name
        self.params = params
        self.body = body

    def run(self, it: _Interp):
        raise _RuntimeFailure("TypeError")  # nested defs unsupported


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


class While(Stmt):
    __slots__ = ("cond", "body")

    def __init__(self, line: int, cond: Expr, body: list[Stmt]):
        self.line = line
        self.cond = cond
        self.body = body

    def run(self, it: _Interp):
        while self.cond.eval(it):
            if it.loop_body(self):
                break


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
            if it.loop_body(self):
                break


class Break(Stmt):
    __slots__ = ()

    def run(self, it: _Interp):
        raise _BreakSignal()


class Continue(Stmt):
    __slots__ = ()

    def run(self, it: _Interp):
        raise _ContinueSignal()


class Module(_Node):
    __slots__ = ("body",)

    def __init__(self, body: list[Stmt]):
        self.body = body

    def functions(self) -> dict[str, FunctionDef]:
        return {s.name: s for s in self.body if isinstance(s, FunctionDef)}


# ---------------------------------------------------------------------------
# Lexer
#
# One compiled regular expression cuts the text where the standard library's
# ``tokenize`` cuts it, and the scanner adds tokenize's line logic around it:
# blank and comment-only lines, bracket nesting (no NEWLINE or INDENT/DEDENT
# inside brackets), backslash continuation, tab stops of 8 in indentation,
# and the empty NEWLINE after a last line that has no line break.  Unlike
# tokenize, it raises CPython's TabError where the columns at tab stops of 1
# do not order the lines as those at tab stops of 8 do.  Tokens are plain
# ``(kind, string, line, start)`` tuples, ``start`` being the offset of the
# token in the text; comments and non-logical line breaks produce none.
# Characters that start no token become ERRORTOKEN tokens, so a parse fails
# at them only when the parser gets there, as with tokenize.

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
# The rest of a string literal after its opening quotes, on its first line
# (a one-quote string may end that line with a backslash-newline instead),
# and the end of a string continued onto a later line.
_STRING_FIRST = {
    "'''": r"[^'\\]*(?:(?:\\.|'(?!''))[^'\\]*)*'''",
    '"""': r'[^"\\]*(?:(?:\\.|"(?!""))[^"\\]*)*"""',
    "'": r"[^\n'\\]*(?:\\.[^\n'\\]*)*('|\\\r?\n)",
    '"': r'[^\n"\\]*(?:\\.[^\n"\\]*)*("|\\\r?\n)',
}
_STRING_LATER = {
    **_STRING_FIRST,
    "'": r"[^'\\]*(?:\\.[^'\\]*)*'",
    '"': r'[^"\\]*(?:\\.[^"\\]*)*"',
}
Token = tuple[int, str, int, int]  # kind, string, line, start offset
_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")
_TAB_ERROR = "inconsistent use of tabs and spaces in indentation"


class _IndentationFault(ParseError):
    """Indentation CPython's tokenizer refuses, after ``tokens``."""

    def __init__(self, tokens: list[Token], line: int, message: str, kind: str):
        super().__init__(line, message, kind)
        self.tokens = tokens


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


def _string_end(source: str, start: int, quote_end: int, line: int,
                needcont: bool):
    """Where the string literal at ``start`` ends, line by line as tokenize
    reads it: ``(end, lines, closed, needcont)``.

    ``lines`` counts the line breaks inside it.  A one-quote string that does
    not close or continue on its first line is no string (``end`` is None).
    Once continued, a string must close or continue on every further line
    (``needcont``); one that stops instead is an error token up to the end of
    that line (``closed`` False).  As in tokenize, ``needcont`` stays set after
    that error and then applies to the next multi-line string too.
    """
    quote = source[start:quote_end].lstrip("bBrRuUfF")
    size = len(source)
    newline = source.find("\n", quote_end)
    pos = size if newline < 0 else newline + 1
    match = re.compile(_STRING_FIRST[quote]).match(source, quote_end, pos)
    if len(quote) == 1:
        if match is None:
            return None, 0, False, needcont
        if match.group(1) == quote:
            return match.end(), 0, True, needcont
        needcont = True
    elif match is not None:
        return match.end(), 0, True, needcont
    later = re.compile(_STRING_LATER[quote])
    lines = 1
    while True:
        if pos == size:
            raise ParseError(line, "unterminated string literal")
        newline = source.find("\n", pos)
        line_end = size if newline < 0 else newline + 1
        match = later.match(source, pos, line_end)
        if match is not None:
            return match.end(), lines, True, False
        if needcont and not source.endswith(("\\\n", "\\\r\n"), pos, line_end):
            return line_end, lines, False, needcont
        pos, lines = line_end, lines + 1


def _scan(source: str) -> list[Token]:
    """The token stream of ``source`` as ``(kind, string, line, start)``
    tuples.

    Raises ParseError where tokenize raises: at an unindent to no enclosing
    level, and at the end of the text inside brackets, after a backslash or
    inside a string, naming the line of the innermost open bracket, the
    backslash or the string's start; and at a TabError.
    """
    tokens: list[Token] = []
    append = tokens.append
    size = len(source)
    pos = 0
    line = 1
    depth = 0  # bracket nesting; a closer without an opener takes it below 0
    opened: list[tuple[str, int]] = []  # the open brackets and their lines
    stray = 0  # line of the first closer without an opener
    indents = [0]
    alts = [0]  # the same levels at tab stops of 1
    needcont = False  # tokenize's flag, see _string_end
    bol = True  # at the start of a logical line
    token = re.compile(_TOKEN)
    while True:  # one pass per stretch of text between multi-line strings
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
                if indent.count(" ") == len(indent):
                    column = alt = len(indent)
                else:
                    column, alt = _column(indent), len(indent) - indent.rfind("\x0c") - 1
                if column > indents[-1]:
                    if alt <= alts[-1]:
                        raise _IndentationFault(tokens, line, _TAB_ERROR, "TabError")
                    indents.append(column)
                    alts.append(alt)
                    append((INDENT, indent, line, found.start()))
                else:
                    while column < indents[-1]:
                        indents.pop()
                        alts.pop()
                        append((DEDENT, "", line, found.start(group)))
                    if column != indents[-1]:
                        raise _IndentationFault(tokens, line, "unindent does not match any "
                                                "outer indentation level", "IndentationError")
                    if alt != alts[-1]:
                        raise _IndentationFault(tokens, line, _TAB_ERROR, "TabError")
                bol = False
            # the token itself
            if group == _G_NAME:
                append((NAME, found[group], line, found.start(group)))
            elif group == _G_OP:
                text = found[group]
                if text in _OPENERS:
                    if len(opened) == MAX_NESTING:  # CPython stops at a stray closer first
                        raise (ParseError(stray, "unmatched closing bracket") if stray else
                               ParseError(line, "too many nested parentheses"))
                    depth += 1
                    opened.append((text, line))
                elif text in _CLOSERS:
                    depth -= 1
                    if opened:
                        opened.pop()
                    elif not stray:
                        stray = line
                append((OP, text, line, found.start(group)))
            elif group == _G_NUMBER:
                append((NUMBER, found[group], line, found.start(group)))
            elif group == _G_NEWLINE:
                if depth > 0:
                    line += 1
                    continue
                append((NEWLINE, found[group], line, found.start(group)))
                line += 1
                bol = depth == 0
            elif group is None:  # end of the text
                if depth > 0:
                    char, at = opened[-1]
                    raise ParseError(at, f"{char!r} was never closed")
                if depth < 0:
                    raise ParseError(stray, "unmatched closing bracket")
                if source[-1] == "\n":  # only a backslash continuation gets here
                    raise ParseError(line - 1, "unexpected end of text after a backslash")
                if _open_last_line(source):
                    append((NEWLINE, "", line, size))
                line += 1
                break
            elif group == _G_BACKSLASH:
                line += 1
            elif group == _G_STRING:
                begin = found.start(group)
                quote_end = found.end()
                end, lines, closed, needcont = _string_end(
                    source, begin, quote_end, line, needcont)
                if end is None:  # a name, if prefixed, then a stray quote
                    if begin < quote_end - 1:
                        append((NAME, source[begin:quote_end - 1], line, begin))
                    append((ERRORTOKEN, source[quote_end - 1], line, quote_end - 1))
                    continue
                append((STRING if closed else ERRORTOKEN, source[begin:end], line, begin))
                pos = end
                line += lines
                if not closed:
                    line += 1
                    bol = depth == 0
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


class _Parser:
    """Recursive descent over the token tuples, with precedence climbing for
    the operators.  Operators and keywords are matched on the token's
    string, which the lexer makes unique to its kind.  A name is a NAME
    token that is not a keyword of the running Python, and a bracketed list
    is read as CPython reads one: a comma between two items and an optional
    one after the last."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

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
            raise ParseError(tok[2], f"expected {KIND_NAMES[kind]!r}, got {tok[1]!r}",
                             "IndentationError" if kind == INDENT else "SyntaxError")
        self.pos += 1
        return tok

    def error(self, message: str) -> ParseError:
        return ParseError(self.tokens[self.pos][2], message)

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

    def expressions(self) -> list[Expr]:
        """Expressions between commas, outside brackets."""
        tokens = self.tokens
        out = [self.expression()]
        while tokens[self.pos][1] == ",":
            self.pos += 1
            out.append(self.expression())
        return out

    # -- grammar

    def parse_module(self) -> Module:
        body = []
        while True:
            kind = self.tokens[self.pos][0]
            if kind == ENDMARKER:
                return Module(body)
            if kind == NEWLINE:
                self.pos += 1
            else:
                body.append(self.statement())

    def statement(self) -> Stmt:
        kind, word, line, _ = self.tokens[self.pos]
        if kind == INDENT:
            raise ParseError(line, "unexpected indent", "IndentationError")
        if word == "def":
            return self.funcdef()
        if word == "return":
            self.pos += 1
            value = None
            if self.tokens[self.pos][0] != NEWLINE:
                value = self.expression()
            self.expect_kind(NEWLINE)
            return Return(line, value)
        if word == "if":
            return self.if_stmt()
        if word == "while":
            self.pos += 1
            cond = self.expression()
            return While(line, cond, self.block())
        if word == "for":
            return self.for_stmt()
        if word == "break" or word == "continue":
            self.pos += 1
            self.expect_kind(NEWLINE)
            return Break(line) if word == "break" else Continue(line)
        return self.simple_stmt()

    def funcdef(self) -> FunctionDef:
        line = self.expect("def")[2]
        name = self.name()
        params = self.items("(", self.name)
        if len(set(params)) < len(params):
            raise ParseError(line, "duplicate parameter name")
        return FunctionDef(line, name, params, self.block())

    def block(self) -> list[Stmt]:
        self.expect(":")
        self.expect_kind(NEWLINE)
        self.expect_kind(INDENT)
        body = []
        while self.tokens[self.pos][0] != DEDENT:
            body.append(self.statement())
        self.pos += 1
        if not body:
            raise self.error("empty block")
        return body

    def if_stmt(self, keyword: str = "if") -> If:
        line = self.expect(keyword)[2]
        cond = self.expression()
        body = self.block()
        orelse: list[Stmt] = []
        if self.at("elif"):
            orelse = [self.if_stmt("elif")]
        elif self.at("else"):
            self.pos += 1
            orelse = self.block()
        return If(line, cond, body, orelse)

    def for_stmt(self) -> ForRange:
        line = self.expect("for")[2]
        var = self.name()
        self.expect("in")
        self.expect("range")
        args = self.items("(", self.expression)
        if not 1 <= len(args) <= 3:
            raise self.error("range takes 1 to 3 arguments")
        return ForRange(line, var, args, self.block())

    def simple_stmt(self) -> Stmt:
        line = self.tokens[self.pos][2]
        targets = self.expressions()
        if len(targets) == 1 and self.tokens[self.pos][1] != "=":
            self.expect_kind(NEWLINE)
            return ExprStmt(line, targets[0])
        self.expect("=")
        values = self.expressions()
        self.expect_kind(NEWLINE)
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

    def expression(self, floor: int = 1) -> Expr:
        """An expression whose binary operators bind at least as tightly as
        ``floor``; operators of one binding power group to the left."""
        tokens = self.tokens
        string = tokens[self.pos][1]
        if string == "not" and floor <= _NOT:
            self.pos += 1
            node = NotOp(self.expression(_NOT))
        elif string == "-":
            self.pos += 1
            if tokens[self.pos][0] == NUMBER:
                self.pos += 1
                node = self.number(tokens[self.pos - 1], negate=True)
            else:
                node = Neg(self.expression(_NEG))
        else:
            node = self.primary()
        while True:
            string = tokens[self.pos][1]
            power = _BINARY.get(string)
            if power is None or power < floor:
                return node
            self.pos += 1
            if power == _COMPARE:
                node = Compare(string, node, self.expression(_COMPARE + 1))
                if tokens[self.pos][1] in _CMP_OPS:
                    raise self.error("chained comparisons are not supported")
            elif power < _NOT:
                node = BoolOp(string, node, self.expression(power + 1))
            else:
                node = BinOp(string, node, self.expression(power + 1))

    def number(self, tok: Token, negate: bool = False) -> Num:
        _, text, line, _ = tok
        try:
            value = int(text)
        except ValueError:
            raise ParseError(line, f"only integer literals are supported: {text}")
        return Num(-value if negate else value)

    def primary(self) -> Expr:
        """An atom and the subscripts and method calls after it."""
        tokens = self.tokens
        tok = tokens[self.pos]
        kind, word, line, _ = tok
        if kind == NAME:
            if word == "True" or word == "False":
                self.pos += 1
                node = BoolLit(word == "True")
            elif word == "len":
                self.pos += 1
                self.expect("(")
                node = LenCall(self.expression())
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
            node = self.expression()
            self.expect(")")
        elif word == "[":
            node = ListDisplay(self.items("[", self.expression))
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
                index = self.expression()
                self.expect("]")
                node = Subscript(node, index)
            elif string == ".":
                line = tokens[self.pos][2]
                self.pos += 1
                method = self.name()
                if method not in _METHODS:
                    raise ParseError(line, f"unknown method {method!r}")
                node = MethodCall(node, method, self.items("(", self.expression))
            else:
                return node


def parse(source: str) -> Module:
    """Parse mini-language source; raises ParseError outside the language."""
    try:
        tokens = _scan(source)
    except _IndentationFault as fault:
        # CPython reads a line's indentation only once its parser has taken
        # the lines before it, so a fault of theirs is reported first
        try:
            _Parser([*fault.tokens, (ERRORTOKEN, "", fault.line, len(source))]).parse_module()
        except ParseError as earlier:
            if earlier.line < fault.line:
                raise earlier from None
        raise
    module = _Parser(tokens).parse_module()
    _check_jumps(module.body, False, False)
    return module


def _check_jumps(body: list[Stmt], in_def: bool, in_loop: bool) -> None:
    """Raise the SyntaxError of CPython's compiler at the first ``return``
    outside a ``def``, or ``break`` or ``continue`` outside a loop of its own
    ``def``, in source order.  The compiler runs only on a text that parses,
    so this runs after the parse."""
    for stmt in body:
        if isinstance(stmt, FunctionDef):
            _check_jumps(stmt.body, True, False)
        elif isinstance(stmt, (While, ForRange)):
            _check_jumps(stmt.body, in_def, True)
        elif isinstance(stmt, If):
            _check_jumps(stmt.body, in_def, in_loop)
            _check_jumps(stmt.orelse, in_def, in_loop)
        elif isinstance(stmt, Return) and not in_def:
            raise ParseError(stmt.line, "'return' outside function")
        elif isinstance(stmt, (Break, Continue)) and not in_loop:
            raise ParseError(stmt.line, f"'{type(stmt).__name__.lower()}' outside loop")


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


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


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
        starts at ``line``, or a loop body ends normally or by ``continue``
        and control goes back to its header at ``line``."""
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

    def loop_body(self, loop: While | ForRange) -> bool:
        """One iteration of ``loop``'s body and its back-edge; True when the
        body ended by ``break``."""
        try:
            self.exec_block(loop.body)
        except _BreakSignal:
            return True
        except _ContinueSignal:
            pass
        self.tick(loop.line)
        return False


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
