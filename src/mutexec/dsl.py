"""Typed list-processing language: primitives, types, constraints, evaluator.

The language has fifteen primitives over ints, bools, and lists, plus integer
literals in [-1, 5] and positional parameters ``a1``/``a2``.  Terms are fully
applied except for the function argument of ``map``, which is a partial
application missing its trailing argument (the mapped element).

Terms serialize to one-line s-expressions::

    term    := atom | "(" head term* ")"
    atom    := integer | "empty" | "a" index
    head    := "if" | "map" | "append" | "extend" | "init" | "tail"
             | "length" | "index" | "==" | "<" | ">" | "&&" | "||" | "!"

A parenthesized form with one argument fewer than the head's arity is a
partial application, e.g. ``(map (length) a1)``.

The evaluator here is the semantic reference for the whole pipeline.  List
operations mutate their operand stores in place, both branches of ``if``
have their statement effects applied before the branch is selected, and
statement effects happen in the same order the imperative translation lays
them out (children before parents, left to right).  Pure expressions
(length, index, comparisons, logical operators) are evaluated lazily at the
moment the enclosing statement runs, which matters when a sibling statement
mutates shared state first.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Ty:
    """Base class for object-language types."""


@dataclass(frozen=True)
class TInt(Ty):
    def __repr__(self) -> str:
        return "int"


@dataclass(frozen=True)
class TBool(Ty):
    def __repr__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class TList(Ty):
    elem: Ty

    def __repr__(self) -> str:
        return f"L({self.elem!r})"


@dataclass(frozen=True)
class TVar(Ty):
    name: str

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TFun(Ty):
    arg: Ty
    res: Ty

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


def split_fun(ty: Ty) -> tuple[tuple[Ty, ...], Ty]:
    """Split an arrow chain into (parameter types, result type)."""
    params: list[Ty] = []
    while isinstance(ty, TFun):
        params.append(ty.arg)
        ty = ty.res
    return tuple(params), ty


def nesting(ty: Ty) -> int:
    return 1 + nesting(ty.elem) if isinstance(ty, TList) else 0


# ---------------------------------------------------------------------------
# Primitives


@dataclass(frozen=True)
class Primitive:
    name: str
    params: tuple[Ty, ...]
    result: Ty

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def signature(self) -> Ty:
        return fun_type(*self.params, self.result)


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


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Term:
    """AST node: a primitive application, integer literal, or parameter.

    ``head`` is a primitive name, ``"lit"``, or ``"param"``; ``value`` holds
    the literal value or 1-based parameter index.  ``partial`` marks the
    function argument of ``map`` (one missing trailing argument).
    """

    head: str
    children: tuple["Term", ...] = ()
    value: int | None = None
    partial: bool = False

    def __post_init__(self) -> None:
        if self.head in ("lit", "param"):
            if self.value is None or self.children:
                raise ValueError(f"malformed {self.head} node")
        elif self.head in PRIM_BY_NAME:
            prim = PRIM_BY_NAME[self.head]
            want = prim.arity - 1 if self.partial else prim.arity
            if len(self.children) != want:
                raise ValueError(
                    f"{self.head} expects {want} children, got {len(self.children)}"
                )
            if self.partial and prim.arity == 0:
                raise ValueError("zero-arity primitive cannot be partial")
        else:
            raise ValueError(f"unknown head {self.head!r}")

    @property
    def is_lit(self) -> bool:
        return self.head == "lit"

    @property
    def is_param(self) -> bool:
        return self.head == "param"

    def depth(self) -> int:
        """Longest root-to-leaf path in nodes, literals and parameters included."""
        return 1 + max((c.depth() for c in self.children), default=0)

    def walk(self):
        """Yield all nodes, parents before children."""
        yield self
        for c in self.children:
            yield from c.walk()

    def postorder(self):
        """Yield all nodes children-first, left to right (reverse topological)."""
        for c in self.children:
            yield from c.postorder()
        yield self


def lit(value: int) -> Term:
    return Term("lit", value=value)


def param(index: int) -> Term:
    return Term("param", value=index)


def app(head: str, *children: Term) -> Term:
    return Term(head, tuple(children))


def partial(head: str, *children: Term) -> Term:
    return Term(head, tuple(children), partial=True)


def empty() -> Term:
    # one fresh node per call: each empty node owns a distinct store
    return Term("empty")


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
        if re.fullmatch(r"a\d+", tok):
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
    if a == b:
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


@dataclass(frozen=True)
class Violation:
    rule: str
    node: Term
    detail: str


COMPILE_RULES = ("c1", "c2", "c3", "c4")
SAMPLE_RULES = ("s1", "s2", "s3", "s4")
RUNTIME_RULES = ("r1",)  # output must differ across the sampled inputs


@dataclass(frozen=True)
class ConstraintSet:
    """Structural and behavioral rules; each independently toggleable."""

    compile_time: tuple[str, ...] = COMPILE_RULES
    sample_time: tuple[str, ...] = SAMPLE_RULES
    runtime: tuple[str, ...] = RUNTIME_RULES

    def without(self, *rules: str) -> "ConstraintSet":
        return ConstraintSet(
            tuple(r for r in self.compile_time if r not in rules),
            tuple(r for r in self.sample_time if r not in rules),
            tuple(r for r in self.runtime if r not in rules),
        )


def list_dsl() -> tuple[tuple[Primitive, ...], ConstraintSet]:
    """The fifteen list-processing primitives and their constraint set."""
    return PRIMITIVES, ConstraintSet()


def _is_empty_node(node: Term) -> bool:
    return node.head == "empty" and not node.partial


def check_constraints(
    term: Term,
    phase: str,
    constraints: ConstraintSet | None = None,
    arity: int | None = None,
) -> list[Violation]:
    """Return all violated structural rules for the given phase.

    Compile-time rules: (c1) the first argument of a comparison is not an
    integer literal; (c2) the last argument of extend/length/map is not
    ``empty``; (c3) the literal -1 appears only as the first argument of
    ``index``; (c4) index/init/tail are never applied to ``empty``.

    Sample-time rules: (s1) no identical terms on both sides of a comparison
    or logical operator; (s2) a list is not extended with itself; (s3) no
    identical terms in both branches of ``if``; (s4) every parameter up to
    ``arity`` occurs in the term.
    """
    if phase not in ("compile", "sample"):
        raise ValueError(f"unknown phase {phase!r}")
    cs = constraints or ConstraintSet()
    enabled = set(cs.compile_time if phase == "compile" else cs.sample_time)
    out: list[Violation] = []

    if phase == "compile":
        for node in term.walk():
            if node.head in COMPARISONS and node.children:
                if "c1" in enabled and node.children[0].is_lit:
                    out.append(Violation("c1", node, "comparison of a literal"))
            if "c2" in enabled and not node.partial:
                if node.head in ("extend", "map") and _is_empty_node(node.children[1]):
                    out.append(Violation("c2", node, f"{node.head} of empty"))
                if node.head == "length" and _is_empty_node(node.children[0]):
                    out.append(Violation("c2", node, "length of empty"))
            if "c4" in enabled and not node.partial:
                if node.head in ("init", "tail") and _is_empty_node(node.children[0]):
                    out.append(Violation("c4", node, f"{node.head} of empty"))
                if node.head == "index" and _is_empty_node(node.children[1]):
                    out.append(Violation("c4", node, "index into empty"))
        if "c3" in enabled:
            allowed = set()
            for node in term.walk():
                if node.head == "index" and node.children:
                    allowed.add(id(node.children[0]))
            for node in term.walk():
                if node.is_lit and node.value == -1 and id(node) not in allowed:
                    out.append(Violation("c3", node, "-1 outside index position"))
        return out

    for node in term.walk():
        if "s1" in enabled and node.head in COMPARISONS + LOGICALS and not node.partial:
            if node.children[0] == node.children[1]:
                out.append(Violation("s1", node, "identical operands"))
        if "s2" in enabled and node.head == "extend" and not node.partial:
            if node.children[0] == node.children[1]:
                out.append(Violation("s2", node, "list extended with itself"))
        if "s3" in enabled and node.head == "if" and not node.partial:
            if node.children[1] == node.children[2]:
                out.append(Violation("s3", node, "identical branches"))
    if "s4" in enabled and arity is not None:
        used = {n.value for n in term.walk() if n.is_param}
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


@dataclass
class EvalOutcome:
    status: str  # "ok" | "error"
    output: object = None
    error_kind: str | None = None


class _Run:
    def __init__(self, root: Term, args: tuple):
        self.root = root
        self.args = [copy.deepcopy(a) for a in args]
        self.slots: dict[int, object] = {}

    # -- expressions (pure reads, evaluated at statement time)

    def expr(self, node: Term):
        if node.is_lit:
            return node.value
        if node.is_param:
            return self.args[node.value - 1]
        head = node.head
        if head in STATEMENT_HEADS or head == "empty":
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

    def run(self):
        for node in self.root.postorder():
            if node.partial:
                continue
            if node.head == "empty":
                self.slots[id(node)] = []
        for node in self.root.postorder():
            if node.partial or node.head not in STATEMENT_HEADS:
                continue
            self.statement(node)
        return self.expr(self.root)

    def statement(self, node: Term):
        head, c = node.head, node.children
        if head == "append":
            value = self.expr(c[0])
            target = self.expr(c[1])
            target.append(value)
            self.slots[id(node)] = target
        elif head == "extend":
            source = self.expr(c[0])
            target = self.expr(c[1])
            target.extend(list(source))
            self.slots[id(node)] = target
        elif head == "init":
            target = self.expr(c[0])
            self.pop(target, front=False)
            self.slots[id(node)] = target
        elif head == "tail":
            target = self.expr(c[0])
            self.pop(target, front=True)
            self.slots[id(node)] = target
        elif head == "if":
            branch = c[1] if self.expr(c[0]) else c[2]
            self.slots[id(node)] = self.expr(branch)
        elif head == "map":
            target = self.expr(c[1])
            for i in range(len(target)):
                self.apply_fn(c[0], target, i)
            self.slots[id(node)] = target

    def apply_fn(self, fn: Term, lst: list, i: int):
        """One loop iteration of ``map``: apply the partial node to lst[i]."""
        head, c = fn.head, fn.children
        if head == "length":
            lst[i] = len(lst[i])
        elif head == "index":
            lst[i] = self.index(self.expr(c[0]), lst[i])
        elif head in ("==", "<", ">"):
            left = self.expr(c[0])
            lst[i] = {"==": left == lst[i], "<": left < lst[i], ">": left > lst[i]}[head]
        elif head == "&&":
            left = self.expr(c[0])
            lst[i] = left and lst[i]
        elif head == "||":
            left = self.expr(c[0])
            lst[i] = left or lst[i]
        elif head == "!":
            lst[i] = not lst[i]
        elif head == "append":
            lst[i].append(self.expr(c[0]))
        elif head == "extend":
            lst[i].extend(list(self.expr(c[0])))
        elif head == "init":
            self.pop(lst[i], front=False)
        elif head == "tail":
            self.pop(lst[i], front=True)
        elif head == "if":
            value = self.expr(c[1]) if self.expr(c[0]) else lst[i]
            self.slots[id(fn)] = value
            lst[i] = value
        elif head == "map":
            inner = lst[i]
            for j in range(len(inner)):
                self.apply_fn(c[0], inner, j)
        else:
            raise AssertionError(f"{head} cannot be a map function")


def eval_dsl(term: Term, args: tuple):
    """Evaluate a term on an argument tuple; raises DslEvalError on failure.

    Semantics intentionally mirror the imperative translation: in-place list
    mutation, both-branch effects for ``if``, emission-order statement
    execution, short-circuit ``&&``/``||``.
    """
    return _Run(term, args).run()


def eval_dsl_outcome(term: Term, args: tuple) -> EvalOutcome:
    try:
        return EvalOutcome("ok", eval_dsl(term, args))
    except DslEvalError as exc:
        return EvalOutcome("error", error_kind=exc.kind)
