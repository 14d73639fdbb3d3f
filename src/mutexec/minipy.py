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
recursive descent with precedence climbing for the binary operators.  The
same scanner finds the mutation sites of ``mutate``, which splices a mutant
at a token's ``start`` offset.  A ParseError carries the 1-based line of the
offending token; at the end of the text inside brackets it names the line of
the innermost open bracket.

Execution is deterministic big-step interpretation.  Runtime behavior
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

import re
from dataclasses import dataclass, field

from .values import INT_MAX, INT_MIN, Value, copy_value


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
# Lexer
#
# One compiled regular expression cuts the text where the standard library's
# ``tokenize`` cuts it, and the scanner adds tokenize's line logic around it:
# blank and comment-only lines, bracket nesting (no NEWLINE or INDENT/DEDENT
# inside brackets), backslash continuation, tab stops of 8 in indentation,
# and the empty NEWLINE after a last line that has no line break.  Tokens are
# plain ``(kind, string, line, start)`` tuples, ``start`` being the offset of
# the token in the text; comments and non-logical line breaks produce none.
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
    backslash or the string's start.
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
                column = len(indent) if indent.count(" ") == len(indent) else _column(indent)
                if column > indents[-1]:
                    indents.append(column)
                    append((INDENT, indent, line, found.start()))
                while column < indents[-1]:
                    if column not in indents:
                        raise ParseError(line, "unindent does not match any outer indentation level")
                    indents.pop()
                    append((DEDENT, "", line, found.start(group)))
                bol = False
            # the token itself
            if group == _G_NAME:
                append((NAME, found[group], line, found.start(group)))
            elif group == _G_OP:
                text = found[group]
                if text in _OPENERS:
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
# Binding power of each binary operator; ``not`` binds at 3, between ``and``
# and the comparisons.  A token's string alone identifies these: no other
# kind of token can read "or", "<" or "+".
_BINARY = {
    "or": 1, "and": 2,
    "<": 4, "<=": 4, ">": 4, ">=": 4, "==": 4, "!=": 4,
    "+": 5, "-": 5,
    "*": 6, "//": 6, "%": 6,
}
_NOT = 3
_COMPARE = 4
_STATEMENT_ONLY = frozenset((
    "import", "from", "class", "lambda", "pass", "del", "try", "with",
    "global", "nonlocal", "assert", "yield", "raise", "elif", "else",
))
_NOT_AN_EXPRESSION = frozenset((
    "None", "and", "or", "not", "in", "is", "if", "else", "for", "while",
    "def", "return", "lambda",
))


class _Parser:
    """Recursive descent over the token tuples, with precedence climbing for
    binary operators.  Operators and keywords are matched on the token's
    string, which the lexer makes unique to its kind."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token helpers

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

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

    def error(self, message: str) -> ParseError:
        return ParseError(self.tokens[self.pos][2], message)

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
        _, word, line, _ = self.tokens[self.pos]
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
        if word in _STATEMENT_ONLY:
            raise self.error(f"{word!r} is outside the mini-language")
        return self.simple_stmt()

    def funcdef(self) -> FunctionDef:
        line = self.expect("def")[2]
        name = self.expect_kind(NAME)[1]
        self.expect("(")
        params = []
        while not self.at(")"):
            params.append(self.expect_kind(NAME)[1])
            if self.at(","):
                self.pos += 1
        self.pos += 1
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
        var = self.expect_kind(NAME)[1]
        self.expect("in")
        self.expect("range")
        self.expect("(")
        args = [self.expression()]
        while self.at(","):
            self.pos += 1
            args.append(self.expression())
        if len(args) > 3:
            raise self.error("range takes at most 3 arguments")
        self.expect(")")
        return ForRange(line, var, args, self.block())

    def simple_stmt(self) -> Stmt:
        line = self.tokens[self.pos][2]
        first = self.expression()
        if self.at(",") or self.at("="):
            targets = [first]
            while self.at(","):
                self.pos += 1
                targets.append(self.expression())
            self.expect("=")
            values = [self.expression()]
            while self.at(","):
                self.pos += 1
                values.append(self.expression())
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
        self.expect_kind(NEWLINE)
        return ExprStmt(line, first)

    # -- expressions

    def expression(self, floor: int = 1) -> Expr:
        """An expression whose binary operators bind at least as tightly as
        ``floor``; operators of one binding power group to the left."""
        tokens = self.tokens
        _, string, line, _ = tokens[self.pos]
        if string == "not" and floor <= _NOT:
            self.pos += 1
            node = NotOp(line, self.expression(_NOT))
        else:
            node = self.unary()
        while True:
            _, string, line, _ = tokens[self.pos]
            power = _BINARY.get(string)
            if power is None or power < floor:
                return node
            self.pos += 1
            if power == _COMPARE:
                node = Compare(line, string, node, self.expression(_COMPARE + 1))
                if tokens[self.pos][1] in _CMP_OPS:
                    raise self.error("chained comparisons are not supported")
            elif power < _NOT:
                node = BoolOp(line, string, node, self.expression(power + 1))
            else:
                node = BinOp(line, string, node, self.expression(power + 1))

    def unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok[1] == "-":
            self.pos += 1
            if self.tokens[self.pos][0] == NUMBER:
                return self.number(self.next(), negate=True)
            return Neg(tok[2], self.unary())
        return self.postfix()

    def postfix(self) -> Expr:
        node = self.atom()
        tokens = self.tokens
        while True:
            _, string, line, _ = tokens[self.pos]
            if string == "[":
                self.pos += 1
                index = self.expression()
                self.expect("]")
                node = Subscript(line, node, index)
            elif string == ".":
                self.pos += 1
                method = self.expect_kind(NAME)[1]
                if method not in _METHODS:
                    raise ParseError(line, f"unknown method {method!r}")
                self.expect("(")
                args = []
                while not self.at(")"):
                    args.append(self.expression())
                    if self.at(","):
                        self.pos += 1
                self.pos += 1
                node = MethodCall(line, node, method, args)
            else:
                return node

    def number(self, tok: Token, negate: bool = False) -> Num:
        _, text, line, _ = tok
        try:
            value = int(text)
        except ValueError:
            raise ParseError(line, f"only integer literals are supported: {text}")
        return Num(line, -value if negate else value)

    def atom(self) -> Expr:
        tok = self.tokens[self.pos]
        kind, word, line, _ = tok
        if kind == NAME:
            if word == "True" or word == "False":
                self.pos += 1
                return BoolLit(line, word == "True")
            if word == "len":
                self.pos += 1
                self.expect("(")
                arg = self.expression()
                self.expect(")")
                return LenCall(line, arg)
            if word in _NOT_AN_EXPRESSION:
                raise self.error(f"{word!r} cannot start an expression here")
            self.pos += 1
            if self.at("("):
                raise ParseError(line, f"calls to {word!r} are outside the mini-language")
            return Name(line, word)
        if kind == NUMBER:
            self.pos += 1
            return self.number(tok)
        if word == "(":
            self.pos += 1
            node = self.expression()
            self.expect(")")
            return node
        if word == "[":
            self.pos += 1
            elems = []
            while not self.at("]"):
                elems.append(self.expression())
                if self.at(","):
                    self.pos += 1
            self.pos += 1
            return ListDisplay(line, elems)
        if kind == STRING:
            raise self.error("string literals are outside the mini-language")
        if kind == ERRORTOKEN:
            raise self.error(f"unexpected character {word!r}")
        raise self.error(f"unexpected token {word!r}")


def parse(source: str) -> Module:
    """Parse mini-language source; raises ParseError outside the language."""
    return _Parser(_scan(source)).parse_module()


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

    # -- statements

    def exec_block(self, body: list[Stmt]):
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: Stmt):
        self.tick(stmt.line)
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
            while self.truthy(self.eval(stmt.cond)):
                try:
                    self.exec_block(stmt.body)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                self.tick(stmt.line)
            return
        if isinstance(stmt, ForRange):
            args = [self.eval(a) for a in stmt.args]
            for a in args:
                if not isinstance(a, int):
                    raise _RuntimeFailure("TypeError")
            if len(args) == 3 and args[2] == 0:
                raise _RuntimeFailure("ValueError")
            for i in range(*args):
                self.env[stmt.var] = i
                try:
                    self.exec_block(stmt.body)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                self.tick(stmt.line)
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
    interp.env = dict(zip(fn.params, copy_value(list(args))))
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
