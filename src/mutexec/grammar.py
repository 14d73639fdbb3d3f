"""Weighted CFG compiled from the DSL plus constraints, and program sampling.

Nonterminals are keyed by goal type, remaining depth, and context flags that
realize the structural rules c1-c4 (no literal as a comparison's first
argument, no ``empty`` in restricted positions, ``-1`` only under ``index``).
Function-position nonterminals (the mapping function of ``map``) carry the
argument and result type of the missing trailing argument.

Polymorphic primitives are instantiated over a finite ground-type universe
whose list nesting is capped at the depth bound; unproductive nonterminals
are pruned, so every production reachable from the start symbol derives at
least one term.  A primitive's instantiations for a goal type do not depend
on depth or flags, so a compile unifies and grounds each (kind, goal type)
once; it keeps one instance of each type and nonterminal, and types and
nonterminals cache their hashes.  Sampling draws a production at each
nonterminal with probability proportional to its weight (the weight of its
head primitive; literals and parameters weigh 1) and recurses, one
``rng.random()`` per production in preorder.

Sample-time rules s1-s4 and the run-time same-output rule are enforced by
rejection in ``sample_valid_program``, not by grammar surgery.  Each draw is
rejected at the cheapest stage that can reject it, in this order:

1. s4, on the drawn productions: a derivation that uses no production of
   some parameter is rejected before its term is built;
2. s1-s4 on the built term (``check_constraints``), before inputs are drawn;
3. a screen with the term evaluator ``dsl.eval_dsl_outcomes``: a runtime error
   or the same output on every input rejects the draw;
4. the one translation of the term, interpreted on every input.

The ground truths come from step 4, never from the screen, and a candidate
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
from dataclasses import dataclass, field

from . import transpile
from .dsl import (
    BOOL,
    INT,
    ConstraintSet,
    Primitive,
    Term,
    TFun,
    TList,
    TVar,
    Ty,
    cached_hash,
    check_constraints,
    eval_dsl_outcomes,
    fun_type,
    nesting,
    split_fun,
    unify,
    _apply,
)
from .minipy import Limits, interpret
from .values import values_equal


class EmptyLanguage(RuntimeError):
    pass


class AttemptsExhausted(RuntimeError):
    pass


DEFAULT_WEIGHTS: dict[str, float] = {"if": 5.0, "map": 5.0, "extend": 0.05}


def list_program_type(arity: int) -> Ty:
    """The arrow type of an ``arity``-parameter int-list transformation."""
    return fun_type(*([TList(INT)] * arity), TList(INT))


@cached_hash
@dataclass(frozen=True)
class NT:
    """Grammar nonterminal.

    ``kind`` is "val" for ordinary goals and "fn" for the partial-application
    slot of ``map``; for "fn" the goal ``ty`` is the arrow of the missing
    argument to the result.
    """

    kind: str
    ty: Ty
    depth: int
    no_empty: bool = False
    no_lit: bool = False
    allow_neg1: bool = False


@dataclass(frozen=True)
class Production:
    head: str  # primitive name, "lit", or "param"
    value: int | None
    partial: bool
    children: tuple[NT, ...]
    weight: float


@dataclass
class Cfg:
    start: NT
    productions: dict[NT, tuple[Production, ...]]
    param_types: tuple[Ty, ...]
    constraints: ConstraintSet
    max_depth: int

    def __post_init__(self):
        # Sampler's tables per weight overrides, built on first use; not a
        # field, so equality and repr see only the grammar
        self.draw_tables: dict = {}

    @property
    def arity(self) -> int:
        return len(self.param_types)


class _Compiler:
    def __init__(
        self,
        primitives: tuple[Primitive, ...],
        constraints: ConstraintSet,
        param_types: tuple[Ty, ...],
        result_type: Ty,
        max_depth: int,
    ):
        self.primitives = primitives
        self.constraints = constraints
        self.rules = set(constraints.compile_time)
        self.param_types = param_types
        self.result_type = result_type
        self.max_depth = max_depth
        self.universe = self._universe(max_depth)
        # (nt.kind, nt.ty) -> the (primitive, argument types) a nonterminal
        # of that kind and type expands with at any depth, in primitive order
        self.instantiations: dict[tuple[str, Ty], list[tuple[Primitive, tuple[Ty, ...]]]] = {}
        # one instance per distinct type and nonterminal, so that comparing
        # two of them is an identity check
        self.types: dict[Ty, Ty] = {}
        self.nts: dict[tuple, NT] = {}

    @staticmethod
    def _universe(max_depth: int) -> tuple[Ty, ...]:
        types: list[Ty] = []
        for base in (INT, BOOL):
            ty: Ty = base
            types.append(ty)
            for _ in range(max_depth):
                ty = TList(ty)
                types.append(ty)
        return tuple(types)

    def weight(self, head: str) -> float:
        return DEFAULT_WEIGHTS.get(head, 1.0)

    # -- flag helpers honoring rule toggles

    def nt(self, kind: str, ty: Ty, depth: int, no_empty: bool = False,
           no_lit: bool = False, allow_neg1: bool = False) -> NT:
        """The one instance of this compile for the nonterminal with these
        fields, so that the tables find their keys by identity."""
        fields = (kind, ty, depth, no_empty, no_lit, allow_neg1)
        nt = self.nts.get(fields)
        if nt is None:
            nt = self.nts[fields] = NT(*fields)
        return nt

    def child(self, ty: Ty, depth: int, *, no_empty_rule: str | None = None,
              no_lit: bool = False, allow_neg1: bool = False) -> NT:
        return self.nt(
            "val",
            ty,
            depth,
            no_empty_rule in self.rules if no_empty_rule else False,
            no_lit and "c1" in self.rules,
            allow_neg1 and "c3" in self.rules,
        )

    # -- production synthesis

    def expand(self, nt: NT) -> list[Production]:
        if nt.kind == "fn":
            return self.expand_fn(nt)
        return self.expand_val(nt)

    def expand_val(self, nt: NT) -> list[Production]:
        out: list[Production] = []
        d = nt.depth
        if d < 1:
            return out
        if nt.ty == INT and not nt.no_lit:
            values = [0, 1, 2, 3, 4, 5]
            if nt.allow_neg1 or "c3" not in self.rules:
                values.insert(0, -1)
            for v in values:
                out.append(Production("lit", v, False, (), 1.0))
        for i, pty in enumerate(self.param_types, start=1):
            if nt.ty == pty:
                out.append(Production("param", i, False, (), 1.0))
        if isinstance(nt.ty, TList) and not nt.no_empty:
            out.append(Production("empty", None, False, (), self.weight("empty")))
        if d < 2:
            return out

        for prim, params in self._instantiations("val", nt.ty):
            children = self._val_children(prim, params, d - 1)
            out.append(Production(prim.name, None, False, children, self.weight(prim.name)))
        return out

    def _instantiations(self, kind: str, goal: Ty) -> list[tuple[Primitive, tuple[Ty, ...]]]:
        """Every primitive of positive arity with its ground argument types,
        for a value (``kind`` "val") or a partial application (``kind``
        "fn", ``goal`` the arrow of the missing argument) of type ``goal``.

        Partial applications list their leading arguments only.  The result
        depends on neither depth nor flags, so it is computed once per
        (kind, goal) and compile.
        """
        key = (kind, goal)
        found = self.instantiations.get(key)
        if found is not None:
            return found
        found = []
        for prim in self.primitives:
            if prim.arity == 0:
                continue
            subst: dict[str, Ty] = {}
            if kind == "val":
                if not unify(prim.result, goal, subst):
                    continue
                params = prim.params
            else:
                assert isinstance(goal, TFun)
                if (not unify(prim.params[-1], goal.arg, subst)
                        or not unify(prim.result, goal.res, subst)):
                    continue
                params = prim.params[:-1]
            params = tuple(_apply(p, subst) for p in params)
            free = sorted({v.name for p in params for v in _free_vars(p)})
            for grounded in self._ground_out(params, free):
                found.append((prim, tuple(self.types.setdefault(t, t) for t in grounded)))
        self.instantiations[key] = found
        return found

    def _ground_out(self, params: tuple[Ty, ...], free: list[str]):
        if not free:
            yield params
            return
        name, rest = free[0], free[1:]
        for ty in self.universe:
            subst = {name: ty}
            grounded = tuple(_apply(p, subst) for p in params)
            if max((nesting(p) for p in grounded), default=0) > self.max_depth:
                continue
            yield from self._ground_out(grounded, rest)

    def _val_children(self, prim: Primitive, params: tuple[Ty, ...], d: int) -> tuple[NT, ...]:
        name = prim.name
        if name == "if":
            return (self.child(params[0], d), self.child(params[1], d), self.child(params[2], d))
        if name == "map":
            fn_ty = params[0]
            return (self.nt("fn", fn_ty, d), self.child(params[1], d, no_empty_rule="c2"))
        if name == "append":
            return (self.child(params[0], d), self.child(params[1], d))
        if name == "extend":
            return (self.child(params[0], d), self.child(params[1], d, no_empty_rule="c2"))
        if name in ("init", "tail"):
            return (self.child(params[0], d, no_empty_rule="c4"),)
        if name == "length":
            return (self.child(params[0], d, no_empty_rule="c2"),)
        if name == "index":
            return (
                self.child(params[0], d, allow_neg1=True),
                self.child(params[1], d, no_empty_rule="c4"),
            )
        if name in ("==", "<", ">"):
            return (self.child(params[0], d, no_lit=True), self.child(params[1], d))
        if name in ("&&", "||", "!"):
            return tuple(self.child(p, d) for p in params)
        raise AssertionError(name)

    def expand_fn(self, nt: NT) -> list[Production]:
        """Partial applications deriving a mapping function arg_ty -> res_ty."""
        d = nt.depth
        out: list[Production] = []
        if d < 1:
            return out
        for prim, leading in self._instantiations("fn", nt.ty):
            if leading and d < 2:
                continue  # leading arguments need room below
            children = self._fn_children(prim, leading, d - 1)
            out.append(Production(prim.name, None, True, children, self.weight(prim.name)))
        return out

    def _fn_children(self, prim: Primitive, leading: tuple[Ty, ...], d: int) -> tuple[NT, ...]:
        name = prim.name
        if not leading:
            return ()
        if name == "if":
            return (self.child(leading[0], d), self.child(leading[1], d))
        if name in ("==", "<", ">"):
            return (self.child(leading[0], d, no_lit=True),)
        if name == "index":
            return (self.child(leading[0], d, allow_neg1=True),)
        if name == "map":
            return (self.nt("fn", leading[0], d),)
        if name in ("append", "extend", "&&", "||"):
            return (self.child(leading[0], d),)
        raise AssertionError(f"unexpected partial head {name}")

    # -- table construction with pruning

    def build(self) -> Cfg:
        start = self.nt("val", self.result_type, self.max_depth)
        pending = [start]
        raw: dict[NT, list[Production]] = {}
        while pending:
            nt = pending.pop()
            if nt in raw:
                continue
            prods = self.expand(nt)
            raw[nt] = prods
            for p in prods:
                for c in p.children:
                    if c not in raw:
                        pending.append(c)

        productive: set[NT] = set()
        changed = True
        while changed:
            changed = False
            for nt, prods in raw.items():
                if nt in productive:
                    continue
                for p in prods:
                    if all(c in productive for c in p.children):
                        productive.add(nt)
                        changed = True
                        break
        if start not in productive:
            raise EmptyLanguage(f"no derivation for {self.result_type!r} at depth {self.max_depth}")

        table: dict[NT, tuple[Production, ...]] = {}
        reachable = [start]
        seen = {start}
        while reachable:
            nt = reachable.pop()
            kept = tuple(
                p for p in raw[nt] if all(c in productive for c in p.children)
            )
            table[nt] = kept
            for p in kept:
                for c in p.children:
                    if c not in seen:
                        seen.add(c)
                        reachable.append(c)
        return Cfg(start, table, self.param_types, self.constraints, self.max_depth)


def _free_vars(ty: Ty):
    if isinstance(ty, TVar):
        yield ty
    elif isinstance(ty, TList):
        yield from _free_vars(ty.elem)
    elif isinstance(ty, TFun):
        yield from _free_vars(ty.arg)
        yield from _free_vars(ty.res)


def compile_cfg(
    primitives: tuple[Primitive, ...],
    constraints: ConstraintSet,
    program_type: Ty,
    max_depth: int,
) -> Cfg:
    """Compile the DSL and compile-time constraints into a CFG weighted by
    ``DEFAULT_WEIGHTS`` (``SamplerConfig.weight_overrides`` reweights it).

    Derivations are exactly the well-typed terms of the program's result type
    with depth at most ``max_depth`` satisfying the enabled c-rules.
    """
    if max_depth < 2:
        raise ValueError("max_depth must be at least 2")
    param_types, result_type = split_fun(program_type)
    if not param_types:
        raise ValueError("program type must be an arrow type")
    return _Compiler(primitives, constraints, param_types, result_type, max_depth).build()


# ---------------------------------------------------------------------------
# Sampling


@dataclass
class SamplerConfig:
    """How ``sample_valid_program`` draws: production weight overrides, the
    sampled inputs and the attempt budget.  The program type and depth bound
    are the ``Cfg``'s."""

    weight_overrides: dict[str, float] = field(default_factory=dict)
    input_count: int = 3
    list_len_range: tuple[int, int] = (3, 5)
    element_range: tuple[int, int] = (0, 5)
    max_attempts: int = 10_000


def production_weight(production: Production, overrides: dict[str, float]) -> float:
    if production.head in ("lit", "param"):
        return 1.0
    return overrides.get(production.head, production.weight)


def _draw_tables(cfg: Cfg, overrides: dict[str, float]):
    """The grammar's productions with nonterminals interned to ints.

    Returns ``(index, rows)``: ``index`` maps each nonterminal of
    ``cfg.productions`` to its row.  A row is ``(cumulative, total,
    entries)``: the running sums of the production weights with the last one
    replaced by infinity, so that a draw never runs past the row; the true
    sum, which scales the draw; and per production ``(production, param_bit,
    children)``.  ``param_bit`` is ``1 << (i - 1)`` for the parameter
    production of ``a<i>`` and 0 otherwise, and ``children`` are row indices
    in reverse, so a stack pops them left to right.
    """
    index = {nt: i for i, nt in enumerate(cfg.productions)}
    rows = []
    for nt, prods in cfg.productions.items():
        if not prods:
            raise EmptyLanguage(f"nonterminal {nt} has no productions")
        cumulative: list[float] = []
        total = 0.0
        entries = []
        for p in prods:
            total += production_weight(p, overrides)
            cumulative.append(total)
            bit = 1 << (p.value - 1) if p.head == "param" else 0
            entries.append((p, bit, tuple(index[c] for c in reversed(p.children))))
        cumulative[-1] = math.inf
        rows.append((cumulative, total, tuple(entries)))
    return index, rows


class Sampler:
    """Reusable top-down sampler over int-indexed cumulative weight tables.

    The tables are built once per grammar and weight overrides and kept on
    the ``Cfg``.  Every production drawn consumes one ``rng.random()``, in
    preorder, whichever of ``draw``, ``derive`` or ``sample`` draws it.
    """

    def __init__(self, cfg: Cfg, overrides: dict[str, float] | None = None):
        self.cfg = cfg
        overrides = overrides or {}
        key = tuple(sorted(overrides.items()))
        if key not in cfg.draw_tables:
            cfg.draw_tables[key] = _draw_tables(cfg, overrides)
        self.index, self.rows = cfg.draw_tables[key]

    def draw(self, nt: NT, rng: random.Random) -> Production:
        cumulative, total, entries = self.rows[self.index[nt]]
        return entries[bisect.bisect_right(cumulative, rng.random() * total)][0]

    def derive(self, rng: random.Random, nt: NT | None = None) -> tuple[list[Production], int]:
        """Draw one derivation without building its term.

        Returns its productions in preorder and a bitmask of the parameters
        it uses (bit ``i - 1`` for ``a<i>``).
        """
        rows = self.rows
        bisect_right = bisect.bisect_right
        draw_point = rng.random
        productions: list[Production] = []
        used = 0
        stack = [self.index[nt or self.cfg.start]]
        while stack:
            cumulative, total, entries = rows[stack.pop()]
            production, bit, children = entries[bisect_right(cumulative, draw_point() * total)]
            productions.append(production)
            used |= bit
            stack.extend(children)
        return productions, used

    @staticmethod
    def build(productions: list[Production]) -> Term:
        """The term of a derivation whose productions are given in preorder."""
        # In reverse preorder a node comes after all of its subtrees, so its
        # children are the top of the stack, the first child on top.
        stack: list[Term] = []
        for p in reversed(productions):
            n = len(p.children)
            if n:
                children = tuple(stack[:-n - 1:-1])
                del stack[-n:]
            else:
                children = ()
            stack.append(Term(p.head, children, p.value, p.partial))
        (term,) = stack
        return term

    def sample(self, rng: random.Random, nt: NT | None = None) -> Term:
        return self.build(self.derive(rng, nt)[0])


def sample_inputs(arity: int, config: SamplerConfig, rng: random.Random) -> list[tuple]:
    """input_count argument tuples of uniformly sampled int lists."""
    lo, hi = config.list_len_range
    elo, ehi = config.element_range
    out = []
    for _ in range(config.input_count):
        args = tuple(
            [rng.randint(elo, ehi) for _ in range(rng.randint(lo, hi))]
            for _ in range(arity)
        )
        out.append(args)
    return out


def default_executor(program: transpile.ImpProgram, args: tuple):
    """Ground-truth executor: interpret the imperative translation."""
    return interpret(program.ast, args, Limits())


# Why sample_valid_program rejected a draw, in the order of its stages.
REJECTION_STAGES = ("s4", "s1", "s2", "s3", "runtime_error", "constant_output")


@dataclass
class SampledProgram:
    term: Term
    program: transpile.ImpProgram  # the one translation the outputs came from
    inputs: list[tuple]
    outputs: list
    attempts: int
    # rejected draws before the accepted one, by REJECTION_STAGES; they sum
    # to attempts - 1
    rejections: dict[str, int]


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
    """Rejection-sample until a program passes s1-s4, executes cleanly on all
    sampled inputs, and does not produce the same output on every input.

    Each draw is rejected at the cheapest stage that can reject it: a
    derivation missing a parameter is rejected by s4 before its term is
    built; a built term is checked against s1-s4 before inputs are drawn;
    the term evaluator then screens out runtime errors and constant output.
    Only a candidate past the screen is translated, once, and ``executor(
    program, args)`` runs that translation on every input; its outputs are
    the ground truths, and a run it fails or finds constant still rejects
    the candidate.  The accepted translation is returned as
    ``SampledProgram.program``.
    """
    run = executor or default_executor
    arity = cfg.arity
    sampler = Sampler(cfg, config.weight_overrides)
    required = (1 << arity) - 1 if "s4" in cfg.constraints.sample_time else 0
    rejections = dict.fromkeys(REJECTION_STAGES, 0)
    for attempt in range(1, config.max_attempts + 1):
        derivation, params_used = sampler.derive(rng)
        if params_used & required != required:
            rejections["s4"] += 1
            continue
        term = sampler.build(derivation)
        violations = check_constraints(term, "sample", cfg.constraints, arity=arity)
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


def enumerate_terms(cfg: Cfg, limit: int | None = None):
    """Yield every derivable term (small grammars only; tests and audits)."""
    produced = 0

    def expand(nt: NT):
        for p in cfg.productions[nt]:
            if p.head == "lit":
                yield Term("lit", value=p.value)
            elif p.head == "param":
                yield Term("param", value=p.value)
            elif not p.children:
                yield Term(p.head, partial=p.partial)
            else:
                for combo in itertools.product(*[expand(c) for c in p.children]):
                    yield Term(p.head, tuple(combo), partial=p.partial)

    for term in expand(cfg.start):
        yield term
        produced += 1
        if limit is not None and produced >= limit:
            return
