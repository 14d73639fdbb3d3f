"""Weighted CFG compiled from the DSL and its rules, and program sampling.

The language is fixed: ``compile_cfg(arity, max_depth)`` compiles the
primitives of ``dsl.PRIMITIVES`` for the int-list programs of ``arity``
parameters, with the structural rules c1-c4 always on, and
``sample_valid_program`` enforces s1-s4 and the run-time rule on every
draw.  No rule can be switched off.

Nonterminals are keyed by goal type, remaining depth, and context flags that
realize c1-c4 (no literal as a comparison's first argument, no ``empty`` in
restricted positions, ``-1`` only under ``index``).  Function-position
nonterminals (the mapping function of ``map``) carry the argument and result
type of the missing trailing argument.  The rules live in one table,
``_ARGUMENTS``: the kind and flags of each argument of each primitive.  A
full application's children are its arguments' rows; a partial
application's are the rows of its leading arguments, so one ``expand``
builds both.

Polymorphic primitives are instantiated over a finite ground-type universe
whose list nesting is capped at the depth bound; unproductive nonterminals
are pruned, so every production reachable from the start symbol derives at
least one term.  Goal types are ground, so a compile matches each
primitive's type one way against a goal, and grounds the variables the goal
leaves free over the universe.  A primitive's instantiations for a goal type
do not depend on depth or flags, so that happens once per (kind, goal type);
the compile builds one instance of each type and nonterminal and keys them
by identity, so it neither rebuilds nor hashes a type.  Whether a
nonterminal derives a term is decided before its productions are made, by
expanding only nonterminals without a leaf, and productions are made only
for the nonterminals the start symbol reaches.  Each production is checked
once, when it is made, against the rules of a well-formed node
(``dsl.check_node``), so the sampler builds terms without checking their
nodes.  Sampling draws a production at each nonterminal with probability
proportional to its weight (the weight of its head primitive; literals and
parameters weigh 1) and recurses, one ``rng.random()`` per production in
preorder.

The sample-time rule s4 (every parameter occurs) is compiled into the draw:
``sample_valid_program`` draws from tables conditioned on the parameters
each subtree uses (``_conditioned_tables``, the inside algorithm over
parameter sets), which give every derivation that uses all parameters its
plain probability divided by the probability that a plain derivation does,
and no other derivation.  That is the distribution a draw-and-reject-on-s4
loop accepts from, with no draw spent on a missed parameter.

The other rules, s1-s3 and the run-time same-output rule, are enforced by
rejection in ``sample_valid_program``.  Each draw is rejected at the
cheapest stage that can reject it, in this order:

1. s1-s4 on the term that ``Sampler.sample`` draws (``check_constraints``),
   before inputs are drawn; s4 stays checked there, as a guard that never
   fires;
2. a screen with the term evaluator ``dsl.eval_dsl_outcomes``: a runtime error
   or the same output on every input rejects the draw;
3. the one translation of the term, interpreted on every input.  The
   translation builds its ``minipy`` AST in its own walk, the AST that its
   source parses to, so no source is parsed.

The ground truths come from step 3, never from the screen, and a candidate
that the interpreter fails or finds constant is still rejected.  The
rejections of each call are counted in ``SampledProgram.rejections``.

Each stage walks a draw once: the term is built from the preorder
productions on an explicit stack, ``check_constraints`` checks s1-s4 in one
walk, and the screen walks the term once for all of its inputs.  The screen
and the interpreter copy their arguments with ``values.copy_value``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from . import transpile
from .dsl import (
    BOOL,
    INT,
    INT_LITERALS,
    PRIMITIVES,
    Primitive,
    Term,
    TFun,
    TList,
    TVar,
    Ty,
    check_constraints,
    check_node,
    eval_dsl_outcomes,
    fun_type,
    nesting,
)
from .minipy import interpret
from .values import values_equal


class EmptyLanguage(RuntimeError):
    pass


class AttemptsExhausted(RuntimeError):
    pass


DEFAULT_WEIGHTS: dict[str, float] = {"if": 5.0, "map": 5.0, "extend": 0.05}

# Per primitive of positive arity, the nonterminal of each argument in
# order, as (kind, no_empty, no_lit, allow_neg1): the flags are the rules c1
# (no_lit), c2 and c4 (no_empty) and c3 (allow_neg1), and map's function is
# a partial application, kind "fn".  A partial application's children are
# the rows of its leading arguments.
_VAL = ("val", False, False, False)
_NONEMPTY = ("val", True, False, False)
_NO_LIT = ("val", False, True, False)
_ARGUMENTS: dict[str, tuple[tuple[str, bool, bool, bool], ...]] = {
    "if": (_VAL, _VAL, _VAL),
    "map": (("fn", False, False, False), _NONEMPTY),
    "append": (_VAL, _VAL),
    "extend": (_VAL, _NONEMPTY),
    "init": (_NONEMPTY,),
    "tail": (_NONEMPTY,),
    "length": (_NONEMPTY,),
    "index": (("val", False, False, True), _NONEMPTY),
    "==": (_NO_LIT, _VAL),
    "<": (_NO_LIT, _VAL),
    ">": (_NO_LIT, _VAL),
    "&&": (_VAL, _VAL),
    "||": (_VAL, _VAL),
    "!": (_VAL,),
}

# the type of every parameter and of every program's result
_INT_LIST = TList(INT)


def list_program_type(arity: int) -> Ty:
    """The arrow type of an ``arity``-parameter int-list transformation."""
    return fun_type(*([_INT_LIST] * arity), _INT_LIST)


class NT:
    """Grammar nonterminal.

    ``kind`` is "val" for ordinary goals and "fn" for the partial-application
    slot of ``map``; for "fn" the goal ``ty`` is the arrow of the missing
    argument to the result.  A compile makes one instance per distinct set
    of fields (``_Compiler.nt``), so nonterminals compare and hash by
    identity.
    """

    __slots__ = ("kind", "ty", "depth", "no_empty", "no_lit", "allow_neg1")

    def __init__(self, kind: str, ty: Ty, depth: int, no_empty: bool = False,
                 no_lit: bool = False, allow_neg1: bool = False):
        self.kind = kind
        self.ty = ty
        self.depth = depth
        self.no_empty = no_empty
        self.no_lit = no_lit
        self.allow_neg1 = allow_neg1

    def __repr__(self) -> str:
        return (f"NT(kind={self.kind!r}, ty={self.ty!r}, depth={self.depth!r}, "
                f"no_empty={self.no_empty!r}, no_lit={self.no_lit!r}, "
                f"allow_neg1={self.allow_neg1!r})")


class Production:
    """One way to rewrite a nonterminal: a node with ``head``, ``value`` and
    ``partial``, whose children derive from the nonterminals ``children``.
    It must be a well-formed node (``dsl.check_node``), so that a sampled
    term can be built without checking its nodes again."""

    __slots__ = ("head", "value", "partial", "children", "weight")

    def __init__(self, head: str, value: int | None, partial: bool,
                 children: tuple[NT, ...], weight: float):
        check_node(head, len(children), value, partial)
        self.head = head  # primitive name, "lit", or "param"
        self.value = value
        self.partial = partial
        self.children = children
        self.weight = weight


class Cfg:
    __slots__ = ("start", "productions", "arity", "max_depth", "draw_tables")

    def __init__(self, start: NT, productions: dict[NT, tuple[Production, ...]],
                 arity: int, max_depth: int):
        self.start = start  # the first key of productions
        self.productions = productions
        self.arity = arity
        self.max_depth = max_depth
        # Sampler's tables per weight overrides, built on first use
        self.draw_tables: dict = {}


def _type_vars(ty: Ty) -> set[str]:
    if isinstance(ty, TVar):
        return {ty.name}
    if isinstance(ty, TList):
        return _type_vars(ty.elem)
    if isinstance(ty, TFun):
        return _type_vars(ty.arg) | _type_vars(ty.res)
    return set()


def _shapes(kind: str) -> tuple[tuple[Primitive, Ty, tuple[Ty, ...], list[str]], ...]:
    """Per primitive of positive arity, in primitive order: the type that a
    value (``kind`` "val") or a partial application (``kind`` "fn") of it
    has, the argument types it lists (a partial application's leading ones),
    and the variables of those that the type leaves free, sorted."""
    shapes = []
    for prim in PRIMITIVES:
        if prim.arity == 0:
            continue
        if kind == "fn":
            shape, params = TFun(prim.params[-1], prim.result), prim.params[:-1]
        else:
            shape, params = prim.result, prim.params
        free = set().union(*map(_type_vars, params)) - _type_vars(shape)
        shapes.append((prim, shape, params, sorted(free)))
    return tuple(shapes)


_SHAPES = {kind: _shapes(kind) for kind in ("val", "fn")}


def _match(pattern: Ty, goal: Ty, subst: dict[str, Ty]) -> bool:
    """Bind the variables of ``pattern`` in ``subst`` so that it equals the
    ground ``goal``, or return False.  A compile keeps one instance of each
    type (``_Compiler.list_of``), so a variable bound twice matches only
    the same instance."""
    cls = pattern.__class__
    if cls is TVar:
        bound = subst.setdefault(pattern.name, goal)
        return bound is goal
    if cls is not goal.__class__:
        return False
    if cls is TList:
        return _match(pattern.elem, goal.elem, subst)
    if cls is TFun:
        return _match(pattern.arg, goal.arg, subst) and _match(pattern.res, goal.res, subst)
    return True  # int or bool


class _Compiler:
    def __init__(self, arity: int, max_depth: int):
        self.arity = arity
        self.max_depth = max_depth
        # one instance per distinct type and nonterminal, so that comparing
        # two of them is an identity check.  Ground types are built only by
        # list_of and fun_of, from parts that are such instances, so the
        # tables below key a type by its id and never hash it.
        self.lists: dict[int, TList] = {}
        self.funs: dict[tuple[int, int], TFun] = {}
        self.nts: dict[tuple, NT] = {}
        self.universe = self._universe(max_depth)
        self.int_list = self.list_of(INT)
        # (nt.kind, nt.ty) -> the (primitive, argument types) a nonterminal
        # of that kind and type expands with at any depth, in primitive order
        self.instantiations: dict[tuple[str, int], list[tuple[Primitive, tuple[Ty, ...]]]] = {}
        # per nonterminal, whether it is productive, and its applications
        # whose children are all productive
        self.derives: dict[NT, bool] = {}
        self.applied: dict[NT, list[tuple[str, tuple[NT, ...]]]] = {}

    def _universe(self, max_depth: int) -> tuple[Ty, ...]:
        types: list[Ty] = []
        for base in (INT, BOOL):
            ty: Ty = base
            types.append(ty)
            for _ in range(max_depth):
                ty = self.list_of(ty)
                types.append(ty)
        return tuple(types)

    def list_of(self, elem: Ty) -> TList:
        ty = self.lists.get(id(elem))
        if ty is None:
            ty = self.lists[id(elem)] = TList(elem)
        return ty

    def fun_of(self, arg: Ty, res: Ty) -> TFun:
        key = (id(arg), id(res))
        ty = self.funs.get(key)
        if ty is None:
            ty = self.funs[key] = TFun(arg, res)
        return ty

    def ground(self, ty: Ty, subst: dict[str, Ty]) -> Ty:
        """``ty`` with each variable replaced by its value in ``subst``."""
        cls = ty.__class__
        if cls is TVar:
            return subst[ty.name]
        if cls is TList:
            return self.list_of(self.ground(ty.elem, subst))
        if cls is TFun:
            return self.fun_of(self.ground(ty.arg, subst), self.ground(ty.res, subst))
        return ty

    def nt(self, kind: str, ty: Ty, depth: int, no_empty: bool = False,
           no_lit: bool = False, allow_neg1: bool = False) -> NT:
        """The one instance of this compile for the nonterminal with these
        fields, so that the tables find their keys by identity."""
        key = (kind, id(ty), depth, no_empty, no_lit, allow_neg1)
        nt = self.nts.get(key)
        if nt is None:
            nt = self.nts[key] = NT(kind, ty, depth, no_empty, no_lit, allow_neg1)
        return nt

    # -- production synthesis

    def leaves(self, nt: NT) -> list[Production]:
        """The childless productions of ``nt``: a literal, parameter or
        ``empty`` where its type and flags allow one."""
        out: list[Production] = []
        ty = nt.ty
        if ty is INT and not nt.no_lit:
            for v in INT_LITERALS:
                if v != -1 or nt.allow_neg1:  # c3
                    out.append(Production("lit", v, False, (), 1.0))
        if ty is self.int_list:
            for i in range(1, self.arity + 1):
                out.append(Production("param", i, False, (), 1.0))
        if ty.__class__ is TList and not nt.no_empty:
            out.append(Production("empty", None, False, (), DEFAULT_WEIGHTS.get("empty", 1.0)))
        return out

    def applications(self, nt: NT) -> list[tuple[str, tuple[NT, ...]]]:
        """Each primitive instantiation whose arguments (a partial
        application's leading ones) fit below ``nt`` and are all productive,
        as the primitive's name and the nonterminals of those arguments.
        Children are one level shallower than their parent, so the
        recursion through ``productive`` ends."""
        found = self.applied.get(nt)
        if found is None:
            d = nt.depth
            new_nt = self.nt
            productive = self.productive
            found = []
            for prim, params in self._instantiations(nt.kind, nt.ty):
                if params and d < 2:
                    continue  # arguments need room below
                children = tuple([new_nt(kind, p, d - 1, no_empty, no_lit, allow_neg1)
                                  for p, (kind, no_empty, no_lit, allow_neg1)
                                  in zip(params, _ARGUMENTS[prim.name])])
                if all(map(productive, children)):
                    found.append((prim.name, children))
            self.applied[nt] = found
        return found

    def productive(self, nt: NT) -> bool:
        """Whether ``nt`` derives a term.  A nonterminal with a leaf is, so
        only a nonterminal without one is expanded to find out."""
        found = self.derives.get(nt)
        if found is None:
            found = self.derives[nt] = bool(self.leaves(nt) or self.applications(nt))
        return found

    def productions(self, nt: NT) -> tuple[Production, ...]:
        """The productions of ``nt`` whose children are all productive:
        its leaves, then its applications."""
        partial = nt.kind == "fn"
        return tuple(self.leaves(nt) + [
            Production(name, None, partial, children, DEFAULT_WEIGHTS.get(name, 1.0))
            for name, children in self.applications(nt)])

    def _instantiations(self, kind: str, goal: Ty) -> list[tuple[Primitive, tuple[Ty, ...]]]:
        """Every primitive of positive arity with its ground argument types,
        for a value (``kind`` "val") or a partial application (``kind``
        "fn") of type ``goal``.  A partial application's type is the arrow
        of its missing last argument to the result, and it lists its leading
        arguments only.

        Each primitive's type is matched one way against the ground goal;
        argument type variables that the goal leaves free range over the
        universe, skipping any choice that nests an argument's lists deeper
        than the depth bound.  The result depends on neither depth nor
        flags, so it is computed once per (kind, goal) and compile.
        """
        key = (kind, id(goal))
        found = self.instantiations.get(key)
        if found is not None:
            return found
        found = []
        ground = self.ground
        for prim, shape, params, free in _SHAPES[kind]:
            subst: dict[str, Ty] = {}
            if not _match(shape, goal, subst):
                continue
            if not free:
                found.append((prim, tuple([ground(p, subst) for p in params])))
                continue
            for values in itertools.product(self.universe, repeat=len(free)):
                subst.update(zip(free, values))
                grounded = tuple([ground(p, subst) for p in params])
                if max(map(nesting, grounded)) <= self.max_depth:
                    found.append((prim, grounded))
        self.instantiations[key] = found
        return found

    # -- table construction with pruning

    def build(self) -> Cfg:
        start = self.nt("val", self.int_list, self.max_depth)
        # the start symbol is productive, since it derives ``a1``; only the
        # nonterminals it reaches through productive productions are listed,
        # in the order of this walk, and only they are expanded into
        # productions
        table: dict[NT, tuple[Production, ...]] = {}
        reachable = [start]
        seen = {start}
        while reachable:
            nt = reachable.pop()
            table[nt] = prods = self.productions(nt)
            for p in prods:
                for c in p.children:
                    if c not in seen:
                        seen.add(c)
                        reachable.append(c)
        return Cfg(start, table, self.arity, self.max_depth)


def compile_cfg(arity: int, max_depth: int) -> Cfg:
    """Compile ``dsl.PRIMITIVES`` and the rules c1-c4 into a CFG of the
    programs of type ``list_program_type(arity)``, weighted by
    ``DEFAULT_WEIGHTS`` (``SamplerConfig.weight_overrides`` reweights it).

    Derivations are exactly the well-typed terms of type ``[int]`` over the
    parameters ``a1``..``a<arity>`` with depth at most ``max_depth`` that
    satisfy c1-c4.  The rules are fixed: they are the language's.
    """
    if max_depth < 2:
        raise ValueError("max_depth must be at least 2")
    if arity < 1:
        raise ValueError("arity must be at least 1")
    return _Compiler(arity, max_depth).build()


# ---------------------------------------------------------------------------
# Sampling


class SamplerConfig:
    """How ``sample_valid_program`` draws: production weight overrides, the
    sampled inputs and the attempt budget.  The program type and depth bound
    are the ``Cfg``'s.  ``max_attempts`` bounds the draws of one call;
    every draw already uses every parameter (s4), so it counts only those.
    A range whose minimum is above its maximum, a negative list length or
    an ``input_count`` below 1 is a ``ValueError``."""

    __slots__ = ("weight_overrides", "input_count", "list_len_range", "element_range",
                 "max_attempts")

    def __init__(self, weight_overrides: dict[str, float] | None = None, input_count: int = 3,
                 list_len_range: tuple[int, int] = (3, 5),
                 element_range: tuple[int, int] = (0, 5), max_attempts: int = 10_000):
        for name, (lo, hi) in (("list_len_range", list_len_range),
                               ("element_range", element_range)):
            if lo > hi:
                raise ValueError(f"{name}: minimum {lo} is above maximum {hi}")
        if list_len_range[0] < 0:
            raise ValueError(f"list_len_range: negative length {list_len_range[0]}")
        if input_count < 1:
            raise ValueError(f"input_count must be at least 1, got {input_count}")
        self.weight_overrides = {} if weight_overrides is None else weight_overrides
        self.input_count = input_count
        self.list_len_range = list_len_range
        self.element_range = element_range
        self.max_attempts = max_attempts


def production_weight(production: Production, overrides: dict[str, float]) -> float:
    if production.head in ("lit", "param"):
        return 1.0
    return overrides.get(production.head, production.weight)


def _param_bit(production: Production) -> int:
    """``1 << (i - 1)`` for the parameter production of ``a<i>``, else 0."""
    return 1 << (production.value - 1) if production.head == "param" else 0


def _shares(prods: tuple[Production, ...], overrides: dict[str, float]) -> list[float]:
    """The probability that a plain draw takes each of a nonterminal's
    productions; all 0 when their weights are (it is never drawn)."""
    weights = [production_weight(p, overrides) for p in prods]
    total = sum(weights)
    return [w / total if total else 0.0 for w in weights]


def _inside_masses(cfg: Cfg, shares: dict[NT, list[float]]) -> dict[NT, list[tuple[int, float]]]:
    """``masses[nt]``: the pairs ``(u, p)``, by increasing mask ``u`` and
    for every ``p`` above 0, such that a plain derivation from ``nt`` uses
    exactly the parameters of ``u`` (bit ``i - 1`` for ``a<i>``) with
    probability ``p``.  ``shares[nt]`` holds ``_shares`` of ``nt``'s
    productions.

    A production's set is its own bit or-ed with its children's sets, and
    children are one level shallower than their parent, so one pass over
    the nonterminals by increasing depth fills every list.
    """
    size = 1 << cfg.arity
    masses: dict[NT, list[tuple[int, float]]] = {}
    for nt in sorted(cfg.productions, key=lambda nt: nt.depth):
        mass = [0.0] * size
        for p, share in zip(cfg.productions[nt], shares[nt]):
            if not p.children:
                mass[_param_bit(p)] += share
                continue
            dist = [(_param_bit(p), share)]
            for c in p.children:
                joined = [0.0] * size
                for a, x in dist:
                    for b, y in masses[c]:
                        joined[a | b] += x * y
                dist = [(u, x) for u, x in enumerate(joined) if x]
            for u, x in dist:
                mass[u] += x
        masses[nt] = [(u, x) for u, x in enumerate(mass) if x]
    return masses


def _conditioned_tables(cfg: Cfg, overrides: dict[str, float], uses: int):
    """Draw tables for the derivations that use exactly the parameters of
    mask ``uses``, each drawn with its plain probability divided by the
    probability that a plain derivation uses exactly those parameters.

    A row is ``(cumulative, total, entries)``: the running sums of its
    entries' weights with the last one replaced by infinity, so that a draw
    never runs past the row; the true sum, which scales the draw; and per
    entry ``(production, children)``, with ``children`` the row indices of
    the production's children in reverse, so a stack pops them left to
    right.

    A row stands for a pair (nonterminal N, mask U): the derivations from N
    that use exactly U.  Its entries are a production p of N with one mask
    per child, U_1..U_n, such that p's own bit or-ed with U_1..U_n is U; an
    entry weighs p's share times the masses of (child i, U_i), so the row
    sums to the mass of (N, U), and child i continues in the row of (child
    i, U_i).  Entries of zero mass are left out, and only the rows reachable
    from (start, ``uses``) are built.  Returns the rows, with (start,
    ``uses``) row 0.
    """
    shares = {nt: _shares(prods, overrides) for nt, prods in cfg.productions.items()}
    masses = _inside_masses(cfg, shares)
    if uses not in dict(masses[cfg.start]):
        raise EmptyLanguage(f"no derivation uses exactly the parameters of mask {uses:#b}")
    # nonterminal -> mask -> the entries of its row for that mask, in order,
    # each as (production, weight, child row keys in reverse); filled for a
    # nonterminal when its first row is built
    grouped: dict[NT, dict[int, list]] = {}
    # the key of a row holds its place until the loop below builds it
    rows: list = [(cfg.start, uses)]
    row_of: dict[tuple[NT, int], int] = {(cfg.start, uses): 0}
    for i, (nt, used) in enumerate(rows):  # runs on over the rows it adds
        by_mask = grouped.get(nt)
        if by_mask is None:
            by_mask = grouped[nt] = {}
            for p, share in zip(cfg.productions[nt], shares[nt]):
                # every choice of a mask per child, the first child's choice
                # varying slowest, as (child row keys in reverse, weight, union)
                combos = [((), share, _param_bit(p))]
                for c in p.children:
                    combos = [(((c, u),) + keys, weight * m, union | u)
                              for keys, weight, union in combos for u, m in masses[c]]
                for keys, weight, union in combos:
                    by_mask.setdefault(union, []).append((p, weight, keys))
        cumulative: list[float] = []
        total = 0.0
        entries = []
        for p, weight, keys in by_mask[used]:
            total += weight
            cumulative.append(total)
            children = []
            for key in keys:
                j = row_of.get(key)
                if j is None:
                    j = row_of[key] = len(rows)
                    rows.append(key)
                children.append(j)
            entries.append((p, tuple(children)))
        cumulative[-1] = math.inf
        rows[i] = (cumulative, total, tuple(entries))
    return rows


class Sampler:
    """Reusable top-down sampler over int-indexed cumulative weight tables.

    The tables draw only derivations that use every parameter (s4), each
    with its plain probability conditioned on that (``_conditioned_tables``).
    They are built once per grammar and weight overrides, and kept on the
    ``Cfg``.  Every draw starts at row 0, and every production drawn
    consumes one ``rng.random()``, in preorder.
    """

    def __init__(self, cfg: Cfg, overrides: dict[str, float] | None = None):
        overrides = overrides or {}
        key = tuple(sorted(overrides.items()))
        rows = cfg.draw_tables.get(key)
        if rows is None:
            rows = cfg.draw_tables[key] = _conditioned_tables(
                cfg, overrides, (1 << cfg.arity) - 1)
        self.rows = rows

    def derive(self, rng: random.Random) -> list[Production]:
        """Draw one derivation without building its term: its productions
        in preorder."""
        rows = self.rows
        bisect_right = bisect.bisect_right
        draw_point = rng.random
        productions: list[Production] = []
        stack = [0]
        while stack:
            cumulative, total, entries = rows[stack.pop()]
            production, children = entries[bisect_right(cumulative, draw_point() * total)]
            productions.append(production)
            stack.extend(children)
        return productions

    @staticmethod
    def build(productions: list[Production]) -> Term:
        """The term of a derivation whose productions are given in preorder."""
        # In reverse preorder a node comes after all of its subtrees, so its
        # children are the top of the stack, the first child on top.  Every
        # production is a well-formed node (``Production``), so the nodes
        # skip ``Term``'s checks, as ``dsl.complete`` does.
        new_term = Term.__new__
        stack: list[Term] = []
        push = stack.append
        for p in reversed(productions):
            node = new_term(Term)
            n = len(p.children)
            if n:
                node.children = tuple(stack[:-n - 1:-1])
                del stack[-n:]
            else:
                node.children = ()
            node.head = p.head
            node.value = p.value
            node.partial = p.partial
            push(node)
        (term,) = stack
        return term

    def sample(self, rng: random.Random) -> Term:
        return self.build(self.derive(rng))


def sample_inputs(arity: int, config: SamplerConfig, rng: random.Random) -> list[tuple]:
    """input_count argument tuples of uniformly sampled int lists.

    Each list length and element is drawn as ``rng.randint`` draws it, by
    ``getrandbits`` rejection sampling (``Random._randbelow_with_getrandbits``)
    without its per-call argument checks: the same numbers and the same
    stream position.  ``config`` guarantees non-empty ranges, on which the
    redraw loops end.
    """
    lo, hi = config.list_len_range
    elo, ehi = config.element_range
    lengths, elements = hi - lo + 1, ehi - elo + 1
    length_bits, element_bits = lengths.bit_length(), elements.bit_length()
    getrandbits = rng.getrandbits
    out = []
    for _ in range(config.input_count):
        args = []
        for _ in range(arity):
            n = getrandbits(length_bits)
            while n >= lengths:
                n = getrandbits(length_bits)
            xs = []
            for _ in range(lo + n):
                r = getrandbits(element_bits)
                while r >= elements:
                    r = getrandbits(element_bits)
                xs.append(elo + r)
            args.append(xs)
        out.append(tuple(args))
    return out


def default_executor(program: transpile.ImpProgram, args: tuple):
    """Ground-truth executor: interpret the imperative translation."""
    return interpret(program.ast, args)


# Why sample_valid_program rejected a draw, in the order of its stages.
REJECTION_STAGES = ("s4", "s1", "s2", "s3", "runtime_error", "constant_output")


class SampledProgram:
    __slots__ = ("term", "program", "inputs", "outputs", "attempts", "rejections")

    def __init__(self, term: Term, program: transpile.ImpProgram, inputs: list[tuple],
                 outputs: list, attempts: int, rejections: dict[str, int]):
        self.term = term
        self.program = program  # the one translation the outputs came from
        self.inputs = inputs
        self.outputs = outputs
        self.attempts = attempts
        # rejected draws before the accepted one, by REJECTION_STAGES; they
        # sum to attempts - 1
        self.rejections = rejections


def _outputs(results) -> list | None:
    """The outputs of runs on every input, or None at the first failed run."""
    outputs = []
    for result in results:
        if result.status != "ok":
            return None
        outputs.append(result.output)
    return outputs


def _rejection(outputs: list | None) -> str | None:
    """The run-time stage that rejects these outputs, or None to keep them."""
    if outputs is None:
        return "runtime_error"
    if len(outputs) > 1 and all(values_equal(outputs[0], o) for o in outputs[1:]):
        return "constant_output"
    return None


def sample_valid_program(
    cfg: Cfg,
    config: SamplerConfig,
    executor=None,
    *,
    rng: random.Random,
) -> SampledProgram:
    """Sample until a program passes s1-s4, executes cleanly on all sampled
    inputs, and does not produce the same output on every input.

    Every draw uses every parameter (s4): ``Sampler.sample`` draws it from
    the tables conditioned on that, so an s4 miss costs no attempt and
    ``rejections["s4"]`` stays 0 (``check_constraints`` keeps s4 as a
    guard).  Each draw is rejected at the cheapest stage that can reject
    it: the term is checked against s1-s4 before inputs are drawn; the term
    evaluator then screens out runtime errors and constant output.  Only a
    candidate past the screen is translated, once, and
    ``executor(program, args)`` runs that translation on every input; its
    outputs are the ground truths, and a run it fails or finds constant
    still rejects the candidate.  The accepted translation is returned as
    ``SampledProgram.program``.  ``rng`` is consumed as by a plain loop of
    these stages over the conditioned draws.
    """
    run = executor or default_executor
    arity = cfg.arity
    sampler = Sampler(cfg, config.weight_overrides)
    rejections = dict.fromkeys(REJECTION_STAGES, 0)
    for attempt in range(1, config.max_attempts + 1):
        term = sampler.sample(rng)
        violations = check_constraints(term, arity=arity)
        if violations:
            rejections[min(v.rule for v in violations)] += 1
            continue
        inputs = sample_inputs(arity, config, rng)
        stage = _rejection(_outputs(eval_dsl_outcomes(term, inputs)))
        if stage is None:
            program = transpile.translate(term, arity=arity)
            outputs = _outputs(run(program, args) for args in inputs)
            stage = _rejection(outputs)
            if stage is None:
                return SampledProgram(term, program, inputs, outputs, attempt, rejections)
        rejections[stage] += 1
    raise AttemptsExhausted(f"no valid program in {config.max_attempts} attempts")


def count_derivations(cfg: Cfg) -> int:
    """Number of distinct derivations of the grammar (DP over productions)."""
    memo: dict[NT, int] = {}

    def count(nt: NT) -> int:
        if nt not in memo:
            total = 0
            for p in cfg.productions[nt]:
                n = 1
                for c in p.children:
                    n *= count(c)
                total += n
            memo[nt] = total
        return memo[nt]

    return count(cfg.start)

