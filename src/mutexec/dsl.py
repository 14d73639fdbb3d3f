"""Typed list-processing language: primitives, types, constraints, evaluator.

The language has fifteen primitives over ints, bools, and lists, plus integer
literals in [-1, 5] and positional parameters ``a1``/``a2``.  Terms are fully
applied except for the function argument of ``map``, which is a partial
application missing its trailing argument (the mapped element).

Terms serialize to one-line s-expressions::

    term    := atom | "(" head term* ")"
    atom    := integer | "empty" | "a" index      (index 1, 2, ...)
    head    := "if" | "map" | "append" | "extend" | "init" | "tail"
             | "length" | "index" | "==" | "<" | ">" | "&&" | "||" | "!"

A parenthesized form with one argument fewer than the head's arity is a
partial application, e.g. ``(map (length) a1)``.  Applied to an element
``e``, the partial ``(h x1 ... xk)`` is the full application
``(h x1 ... xk e)`` (``complete``), so ``(map (index 0) x)`` sets each
element ``e`` of ``x`` to ``(index 0 e)``.

The evaluator here is the semantic reference for the whole pipeline.  List
operations mutate their operand stores in place, both branches of ``if``
have their statement effects applied before the branch is selected, and
statement effects happen in the same order the imperative translation lays
them out (children before parents, left to right).  Pure expressions
(length, index, comparisons, logical operators) are evaluated lazily at the
moment the enclosing statement runs, which matters when a sibling statement
mutates shared state first.  ``map`` runs its function's completion on each
element through the same path as any full application of its head, and the
element takes its value.
"""

from __future__ import annotations

import re

from .values import copy_value


# ---------------------------------------------------------------------------
# Types


class Ty:
    """Base class for object-language types: values that compare by class
    and fields.  Types do not hash: the grammar compiler keeps one instance
    of each type and keys it by identity (``grammar._Compiler``), and
    nothing else puts a type in a set or a dict key."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return True


class TInt(Ty):
    __slots__ = ()

    def __repr__(self) -> str:
        return "int"


class TBool(Ty):
    __slots__ = ()

    def __repr__(self) -> str:
        return "bool"


class TList(Ty):
    __slots__ = ("elem",)

    def __init__(self, elem: Ty):
        self.elem = elem

    def __eq__(self, other):
        if other.__class__ is not TList:
            return NotImplemented
        return self.elem == other.elem

    def __repr__(self) -> str:
        return f"L({self.elem!r})"


class TVar(Ty):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __eq__(self, other):
        if other.__class__ is not TVar:
            return NotImplemented
        return self.name == other.name

    def __repr__(self) -> str:
        return self.name


class TFun(Ty):
    __slots__ = ("arg", "res")

    def __init__(self, arg: Ty, res: Ty):
        self.arg = arg
        self.res = res

    def __eq__(self, other):
        if other.__class__ is not TFun:
            return NotImplemented
        return self.arg == other.arg and self.res == other.res

    def __repr__(self) -> str:
        arg = f"({self.arg!r})" if isinstance(self.arg, TFun) else repr(self.arg)
        return f"{arg} -> {self.res!r}"


INT = TInt()
BOOL = TBool()
T0 = TVar("t0")
T1 = TVar("t1")


def fun_type(*types: Ty) -> Ty:
    """Right-associated arrow chain from parameter types and a result."""
    result = types[-1]
    for t in reversed(types[:-1]):
        result = TFun(t, result)
    return result


def nesting(ty: Ty) -> int:
    return 1 + nesting(ty.elem) if isinstance(ty, TList) else 0


# ---------------------------------------------------------------------------
# Primitives


class Primitive:
    __slots__ = ("name", "params", "result")

    def __init__(self, name: str, params: tuple[Ty, ...], result: Ty):
        self.name = name
        self.params = params
        self.result = result

    @property
    def arity(self) -> int:
        return len(self.params)


PRIMITIVES: tuple[Primitive, ...] = (
    Primitive("if", (BOOL, T0, T0), T0),
    Primitive("map", (TFun(T0, T1), TList(T0)), TList(T1)),
    Primitive("empty", (), TList(T0)),
    Primitive("append", (T0, TList(T0)), TList(T0)),
    Primitive("extend", (TList(T0), TList(T0)), TList(T0)),
    Primitive("init", (TList(T0),), TList(T0)),
    Primitive("tail", (TList(T0),), TList(T0)),
    Primitive("length", (TList(T0),), INT),
    Primitive("index", (INT, TList(T0)), T0),
    Primitive("==", (INT, INT), BOOL),
    Primitive("<", (INT, INT), BOOL),
    Primitive(">", (INT, INT), BOOL),
    Primitive("&&", (BOOL, BOOL), BOOL),
    Primitive("||", (BOOL, BOOL), BOOL),
    Primitive("!", (BOOL,), BOOL),
)

PRIM_BY_NAME = {p.name: p for p in PRIMITIVES}

INT_LITERALS: tuple[int, ...] = (-1, 0, 1, 2, 3, 4, 5)

COMPARISONS = ("==", "<", ">")
LOGICALS = ("&&", "||")
# Heads the translation turns into statements rather than inline expressions.
STATEMENT_HEADS = ("append", "extend", "init", "tail", "if", "map")
_STATEMENTS = frozenset(STATEMENT_HEADS)
# heads whose value the evaluator keeps in a slot
_SLOTTED = frozenset(STATEMENT_HEADS + ("empty",))
# heads whose two operands s1 forbids to be identical
_S1_HEADS = frozenset(COMPARISONS + LOGICALS)


# ---------------------------------------------------------------------------
# Terms


_ARITY = {p.name: p.arity for p in PRIMITIVES}


def check_node(head: str, n_children: int, value: int | None, partial: bool) -> None:
    """Raise ValueError unless these are the fields of a well-formed node: a
    literal or parameter with a value and no children, or a known primitive
    with one child per argument (one fewer for a partial application, which
    a zero-arity primitive cannot be)."""
    if head == "lit" or head == "param":
        if value is None or n_children:
            raise ValueError(f"malformed {head} node")
        return
    arity = _ARITY.get(head)
    if arity is None:
        raise ValueError(f"unknown head {head!r}")
    want = arity - 1 if partial else arity
    if n_children != want:
        raise ValueError(f"{head} expects {want} children, got {n_children}")
    if partial and arity == 0:
        raise ValueError("zero-arity primitive cannot be partial")


class Term:
    """AST node: a primitive application, integer literal, or parameter.

    ``head`` is a primitive name, ``"lit"``, or ``"param"``; ``value`` holds
    the literal value or 1-based parameter index.  ``partial`` marks the
    function argument of ``map`` (one missing trailing argument).  Terms
    compare by their fields, recursively.
    """

    __slots__ = ("head", "children", "value", "partial")

    def __init__(self, head: str, children: tuple["Term", ...] = (),
                 value: int | None = None, partial: bool = False) -> None:
        self.head = head
        self.children = children
        self.value = value
        self.partial = partial
        check_node(head, len(children), value, partial)

    def __eq__(self, other):
        if other.__class__ is not Term:
            return NotImplemented
        return (self.head, self.children, self.value, self.partial) == (
            other.head, other.children, other.value, other.partial)

    @property
    def is_lit(self) -> bool:
        return self.head == "lit"

    @property
    def is_param(self) -> bool:
        return self.head == "param"

    def depth(self) -> int:
        """Longest root-to-leaf path in nodes, literals and parameters included."""
        return 1 + max((c.depth() for c in self.children), default=0)

    def walk(self) -> list["Term"]:
        """All nodes, parents before children, left to right (preorder)."""
        nodes: list[Term] = []
        _preorder(self, nodes.append)
        return nodes

    def postorder(self) -> list["Term"]:
        """All nodes children-first, left to right (reverse topological)."""
        # the reverse of a right-to-left preorder
        nodes = []
        stack = [self]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children)
        nodes.reverse()
        return nodes


def _preorder(node: Term, visit) -> None:
    visit(node)
    for child in node.children:
        _preorder(child, visit)


def lit(value: int) -> Term:
    return Term("lit", value=value)


def param(index: int) -> Term:
    return Term("param", value=index)


def empty() -> Term:
    # one fresh node per call: each empty node owns a distinct store
    return Term("empty")


# The element that ``map``'s function is applied to.  Parameters start at a1
# in the text and in the grammar, so parameter 0 is free to stand for it: the
# evaluator keeps the element in ``args[0]``, and the translation renders it
# as the loop's place (``v1[i][j]``).
ELEMENT = Term("param", value=0)


def complete(fn: Term) -> Term:
    """Partial ``fn`` = ``(h x1 ... xk)`` applied to the element: the full
    application ``(h x1 ... xk e)`` with ``e`` the leaf ``ELEMENT``."""
    # a valid partial node completes to a valid full one, so the evaluator,
    # which completes once per candidate, skips the constructor's checks
    full = Term.__new__(Term)
    full.head, full.children, full.value, full.partial = (
        fn.head, fn.children + (ELEMENT,), None, False)
    return full


def to_sexpr(term: Term) -> str:
    if term.is_lit:
        return str(term.value)
    if term.is_param:
        return f"a{term.value}"
    if term.head == "empty" and not term.partial:
        return "empty"
    inner = " ".join([term.head] + [to_sexpr(c) for c in term.children])
    return f"({inner})"


_TOKEN_RE = re.compile(r"\(|\)|[^\s()]+")


def parse_sexpr(text: str) -> Term:
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ValueError("empty term")
    pos = 0

    def atom(tok: str) -> Term:
        if re.fullmatch(r"-?\d+", tok):
            return lit(int(tok))
        if re.fullmatch(r"a[1-9]\d*", tok):
            return param(int(tok[1:]))
        if tok == "empty":
            return empty()
        raise ValueError(f"unknown atom {tok!r}")

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unbalanced parentheses")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse() -> Term:
        nonlocal pos
        tok = take()
        if tok != "(":
            return atom(tok)
        head = take()
        if head in ("(", ")") or head not in PRIM_BY_NAME:
            raise ValueError(f"expected primitive name, got {head!r}")
        children = []
        while True:
            if pos >= len(tokens):
                raise ValueError("unbalanced parentheses")
            if tokens[pos] == ")":
                break
            children.append(parse())
        pos += 1
        prim = PRIM_BY_NAME[head]
        if len(children) == prim.arity:
            return Term(head, tuple(children))
        if len(children) == prim.arity - 1 and prim.arity >= 1:
            return Term(head, tuple(children), partial=True)
        raise ValueError(f"{head} applied to {len(children)} arguments")

    term = parse()
    if pos != len(tokens):
        raise ValueError("trailing tokens after term")
    return term


# ---------------------------------------------------------------------------
# Type checking


class TypeMismatch(Exception):
    def __init__(self, node: Term, expected: Ty, found: Ty):
        self.node = node
        self.expected = expected
        self.found = found
        super().__init__(f"{node.head}: expected {expected!r}, found {found!r}")


def _resolve(ty: Ty, subst: dict[str, Ty]) -> Ty:
    while isinstance(ty, TVar) and ty.name in subst:
        ty = subst[ty.name]
    return ty


def _apply(ty: Ty, subst: dict[str, Ty]) -> Ty:
    ty = _resolve(ty, subst)
    if isinstance(ty, TList):
        return TList(_apply(ty.elem, subst))
    if isinstance(ty, TFun):
        return TFun(_apply(ty.arg, subst), _apply(ty.res, subst))
    return ty


def _occurs(name: str, ty: Ty, subst: dict[str, Ty]) -> bool:
    ty = _resolve(ty, subst)
    if isinstance(ty, TVar):
        return ty.name == name
    if isinstance(ty, TList):
        return _occurs(name, ty.elem, subst)
    if isinstance(ty, TFun):
        return _occurs(name, ty.arg, subst) or _occurs(name, ty.res, subst)
    return False


def unify(a: Ty, b: Ty, subst: dict[str, Ty]) -> bool:
    a, b = _resolve(a, subst), _resolve(b, subst)
    # types of distinct classes never compare equal
    if a is b or (type(a) is type(b) and a == b):
        return True
    if isinstance(a, TVar):
        if _occurs(a.name, b, subst):
            return False
        subst[a.name] = b
        return True
    if isinstance(b, TVar):
        return unify(b, a, subst)
    if isinstance(a, TList) and isinstance(b, TList):
        return unify(a.elem, b.elem, subst)
    if isinstance(a, TFun) and isinstance(b, TFun):
        return unify(a.arg, b.arg, subst) and unify(a.res, b.res, subst)
    return False


def _instantiate(prim: Primitive, fresh: list[int]) -> tuple[tuple[Ty, ...], Ty]:
    mapping: dict[str, Ty] = {}

    def inst(ty: Ty) -> Ty:
        if isinstance(ty, TVar):
            if ty.name not in mapping:
                fresh[0] += 1
                mapping[ty.name] = TVar(f"_{fresh[0]}")
            return mapping[ty.name]
        if isinstance(ty, TList):
            return TList(inst(ty.elem))
        if isinstance(ty, TFun):
            return TFun(inst(ty.arg), inst(ty.res))
        return ty

    return tuple(inst(p) for p in prim.params), inst(prim.result)


def typecheck(term: Term, param_type: Ty = TList(INT)) -> Ty:
    """Infer the term's type; raises TypeMismatch on inconsistency.

    All parameters are assumed to have ``param_type`` (lists of ints for
    every program in this toolkit).  Type variables left unconstrained are
    reported as-is.
    """
    subst: dict[str, Ty] = {}
    fresh = [0]

    def check(node: Term) -> Ty:
        if node.is_lit:
            return INT
        if node.is_param:
            return param_type
        prim = PRIM_BY_NAME[node.head]
        params, result = _instantiate(prim, fresh)
        n = len(node.children)
        for p, child in zip(params, node.children):
            found = check(child)
            if not unify(p, found, subst):
                raise TypeMismatch(child, _apply(p, subst), _apply(found, subst))
        if node.partial:
            return TFun(params[n], result)
        return result

    return _apply(check(term), subst)


# ---------------------------------------------------------------------------
# Constraints


class Violation:
    __slots__ = ("rule", "node", "detail")

    def __init__(self, rule: str, node: Term, detail: str):
        self.rule = rule
        self.node = node
        self.detail = detail


def check_constraints(term: Term, arity: int | None = None) -> list[Violation]:
    """Return every violated sample-time rule.

    The rules are fixed, and each call checks all of them: (s1) no
    identical terms on both sides of a comparison or logical operator; (s2)
    a list is not extended with itself; (s3) no identical terms in both
    branches of ``if``; (s4) every parameter up to ``arity`` occurs in the
    term, checked only when ``arity`` is given.  The compile-time rules
    c1-c4 are the grammar's (``grammar.compile_cfg``), so no sampled term
    can break them.
    """
    out: list[Violation] = []
    used = set()
    for node in term.walk():
        head = node.head
        if head == "param":
            used.add(node.value)
        elif node.partial:
            continue
        elif head in _S1_HEADS:
            if node.children[0] == node.children[1]:
                out.append(Violation("s1", node, "identical operands"))
        elif head == "extend":
            if node.children[0] == node.children[1]:
                out.append(Violation("s2", node, "list extended with itself"))
        elif head == "if":
            if node.children[1] == node.children[2]:
                out.append(Violation("s3", node, "identical branches"))
    if arity is not None:
        for i in range(1, arity + 1):
            if i not in used:
                out.append(Violation("s4", term, f"parameter a{i} unused"))
    return out


# ---------------------------------------------------------------------------
# Reference evaluation


class DslEvalError(Exception):
    """Runtime error mirroring the imperative image's failure modes."""

    kind = "RuntimeError"


class IndexOutOfRange(DslEvalError):
    kind = "IndexError"


class PopFromEmpty(DslEvalError):
    kind = "IndexError"


class EvalOutcome:
    __slots__ = ("status", "output", "error_kind")

    def __init__(self, status: str, output: object = None, error_kind: str | None = None):
        self.status = status  # "ok" | "error"
        self.output = output
        self.error_kind = error_kind


class _Evaluator:
    """One term's evaluator: the term is walked once, here, and ``run``
    evaluates it on one argument tuple at a time.

    Every head has one path: ``statement`` for the heads the translation
    turns into statements, ``expr`` for the pure ones.  ``map`` applies its
    function to each element through the same path: the function's
    completion (``complete``), made once per evaluator, runs with the
    element in ``args[0]``, and its value becomes the element."""

    def __init__(self, root: Term):
        self.root = root
        self.empties: list[Term] = []
        self.statements: list[Term] = []
        # id of each partial node -> its completion, made when its map first runs
        self.completions: dict[int, Term] = {}
        self.arity = 0  # the highest parameter the term uses
        for node in root.postorder():
            if node.partial:
                continue
            if node.head == "empty":
                self.empties.append(node)
            elif node.head in _STATEMENTS:
                self.statements.append(node)
            elif node.head == "param" and node.value > self.arity:
                self.arity = node.value
        self.args: list = []
        self.slots: dict[int, object] = {}

    # -- expressions (pure reads, evaluated at statement time)

    def expr(self, node: Term):
        head = node.head
        if head == "lit":
            return node.value
        if head == "param":
            return self.args[node.value]
        if head in _SLOTTED:
            return self.slots[id(node)]
        c = node.children
        if head == "length":
            return len(self.expr(c[0]))
        if head == "index":
            return self.index(self.expr(c[0]), self.expr(c[1]))
        if head == "==":
            return self.expr(c[0]) == self.expr(c[1])
        if head == "<":
            return self.expr(c[0]) < self.expr(c[1])
        if head == ">":
            return self.expr(c[0]) > self.expr(c[1])
        if head == "&&":
            left = self.expr(c[0])
            return left and self.expr(c[1])
        if head == "||":
            left = self.expr(c[0])
            return left or self.expr(c[1])
        if head == "!":
            return not self.expr(c[0])
        raise AssertionError(f"unexpected expression head {head}")

    @staticmethod
    def index(i, lst):
        if not -len(lst) <= i < len(lst):
            raise IndexOutOfRange(f"index {i} out of range")
        return lst[i]

    @staticmethod
    def pop(lst, front: bool):
        if not lst:
            raise PopFromEmpty("pop from empty list")
        return lst.pop(0) if front else lst.pop()

    # -- statements, in emission order

    def run(self, args: tuple):
        if len(args) < self.arity:
            raise ValueError(f"the term uses a{self.arity}, but only {len(args)} "
                             f"argument(s) are given")
        self.args = [None, *map(copy_value, args)]  # args[0]: the element
        # every empty store exists before the first statement runs
        self.slots = {id(node): [] for node in self.empties}
        for node in self.statements:
            self.statement(node)
        return self.expr(self.root)

    def statement(self, node: Term):
        """Run full statement ``node`` and return the value it keeps."""
        head, c = node.head, node.children
        if head == "append":
            value = self.expr(c[0])
            result = self.expr(c[1])
            result.append(value)
        elif head == "extend":
            source = self.expr(c[0])
            result = self.expr(c[1])
            result.extend(list(source))
        elif head == "init" or head == "tail":
            result = self.expr(c[0])
            self.pop(result, front=head == "tail")
        elif head == "if":
            result = self.expr(c[1] if self.expr(c[0]) else c[2])
        else:  # map: each element in turn becomes its completed function's value
            result = self.expr(c[1])
            fn = self.completions.get(id(c[0]))
            if fn is None:
                fn = self.completions[id(c[0])] = complete(c[0])
            apply = self.statement if fn.head in _STATEMENTS else self.expr
            args = self.args
            for i in range(len(result)):
                args[0] = result[i]
                result[i] = apply(fn)
        self.slots[id(node)] = result
        return result


def eval_dsl(term: Term, args: tuple):
    """Evaluate a term on an argument tuple; raises DslEvalError on failure.

    Semantics intentionally mirror the imperative translation: in-place list
    mutation, both-branch effects for ``if``, emission-order statement
    execution, short-circuit ``&&``/``||``.
    """
    return _Evaluator(term).run(args)


def eval_dsl_outcomes(term: Term, inputs):
    """The outcome of ``eval_dsl`` on each argument tuple of ``inputs``, one
    at a time as they are read; the term is walked once for all of them."""
    evaluator = _Evaluator(term)
    for args in inputs:
        try:
            yield EvalOutcome("ok", evaluator.run(args))
        except DslEvalError as exc:
            yield EvalOutcome("error", error_kind=exc.kind)
