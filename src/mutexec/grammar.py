"""Weighted CFG compiled from the DSL plus constraints, and program sampling.

Nonterminals are keyed by goal type, remaining depth, and context flags that
realize the structural rules c1-c4 (no literal as a comparison's first
argument, no ``empty`` in restricted positions, ``-1`` only under ``index``).
Function-position nonterminals (the mapping function of ``map``) carry the
argument and result type of the missing trailing argument.

Polymorphic primitives are instantiated over a finite ground-type universe
whose list nesting is capped at the depth bound; unproductive nonterminals
are pruned, so every production reachable from the start symbol derives at
least one term.  Sampling draws a production at each nonterminal with
probability proportional to its weight (the weight of its head primitive;
literals and parameters weigh 1) and recurses.

Sample-time rules s1-s4 and the run-time same-output rule are enforced by
rejection in ``sample_valid_program``, not by grammar surgery.
"""

from __future__ import annotations

import bisect
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
    check_constraints,
    fun_type,
    nesting,
    split_fun,
    unify,
    _apply,
)
from .minipy import Limits, interpret
from .values import values_equal


class EmptyLanguage(Exception):
    pass


class AttemptsExhausted(Exception):
    pass


DEFAULT_WEIGHTS: dict[str, float] = {"if": 5.0, "map": 5.0, "extend": 0.05}


def list_program_type(arity: int) -> Ty:
    """The arrow type of an ``arity``-parameter int-list transformation."""
    return fun_type(*([TList(INT)] * arity), TList(INT))


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
        weights: dict[str, float],
    ):
        self.primitives = primitives
        self.constraints = constraints
        self.rules = set(constraints.compile_time)
        self.param_types = param_types
        self.result_type = result_type
        self.max_depth = max_depth
        self.weights = weights
        self.universe = self._universe(max_depth)
        self.table: dict[NT, tuple[Production, ...]] = {}

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
        return self.weights.get(head, 1.0)

    # -- flag helpers honoring rule toggles

    def child(self, ty: Ty, depth: int, *, no_empty_rule: str | None = None,
              no_lit: bool = False, allow_neg1: bool = False) -> NT:
        return NT(
            "val",
            ty,
            depth,
            no_empty=no_empty_rule in self.rules if no_empty_rule else False,
            no_lit=no_lit and "c1" in self.rules,
            allow_neg1=allow_neg1 and "c3" in self.rules,
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

        for prim in self.primitives:
            if prim.arity == 0:
                continue
            for params, _ in self._result_instantiations(prim, nt.ty):
                children = self._val_children(prim, params, d - 1)
                out.append(Production(prim.name, None, False, children, self.weight(prim.name)))
        return out

    def _result_instantiations(self, prim: Primitive, goal: Ty):
        """All ground (params, result) instantiations of prim with result == goal."""
        subst: dict[str, Ty] = {}
        if not unify(prim.result, goal, subst):
            return
        params = tuple(_apply(p, subst) for p in prim.params)
        free = sorted({v.name for p in params for v in _free_vars(p)})
        yield from self._ground_out(params, goal, free)

    def _ground_out(self, params: tuple[Ty, ...], result: Ty, free: list[str]):
        if not free:
            yield params, result
            return
        name, rest = free[0], free[1:]
        for ty in self.universe:
            subst = {name: ty}
            grounded = tuple(_apply(p, subst) for p in params)
            if max((nesting(p) for p in grounded), default=0) > self.max_depth:
                continue
            yield from self._ground_out(grounded, result, rest)

    def _val_children(self, prim: Primitive, params: tuple[Ty, ...], d: int) -> tuple[NT, ...]:
        name = prim.name
        if name == "if":
            return (self.child(params[0], d), self.child(params[1], d), self.child(params[2], d))
        if name == "map":
            fn_ty = params[0]
            return (NT("fn", fn_ty, d), self.child(params[1], d, no_empty_rule="c2"))
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
        assert isinstance(nt.ty, TFun)
        arg_ty, res_ty = nt.ty.arg, nt.ty.res
        d = nt.depth
        out: list[Production] = []
        if d < 1:
            return out
        for prim in self.primitives:
            if prim.arity == 0:
                continue
            subst: dict[str, Ty] = {}
            if not unify(prim.params[-1], arg_ty, subst) or not unify(prim.result, res_ty, subst):
                continue
            leading = tuple(_apply(p, subst) for p in prim.params[:-1])
            free = sorted({v.name for p in leading for v in _free_vars(p)})
            for grounded, _ in self._ground_out(leading, res_ty, free):
                if grounded and d < 2:
                    continue  # leading arguments need room below
                children = self._fn_children(prim, grounded, d - 1)
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
            return (NT("fn", leading[0], d),)
        if name in ("append", "extend", "&&", "||"):
            return (self.child(leading[0], d),)
        raise AssertionError(f"unexpected partial head {name}")

    # -- table construction with pruning

    def build(self) -> Cfg:
        start = NT("val", self.result_type, self.max_depth)
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
    weights: dict[str, float] | None = None,
) -> Cfg:
    """Compile the DSL and compile-time constraints into a weighted CFG.

    Derivations are exactly the well-typed terms of the program's result type
    with depth at most ``max_depth`` satisfying the enabled c-rules.
    """
    if max_depth < 2:
        raise ValueError("max_depth must be at least 2")
    param_types, result_type = split_fun(program_type)
    if not param_types:
        raise ValueError("program type must be an arrow type")
    compiler = _Compiler(
        primitives,
        constraints,
        param_types,
        result_type,
        max_depth,
        dict(DEFAULT_WEIGHTS) if weights is None else dict(weights),
    )
    return compiler.build()


# ---------------------------------------------------------------------------
# Sampling


@dataclass
class SamplerConfig:
    program_type: Ty = field(default_factory=lambda: list_program_type(1))
    max_depth: int = 5
    weight_overrides: dict[str, float] = field(default_factory=dict)
    rng_seed: int = 0
    input_count: int = 3
    list_len_range: tuple[int, int] = (3, 5)
    element_range: tuple[int, int] = (0, 5)
    max_attempts: int = 10_000

    @property
    def arity(self) -> int:
        return len(split_fun(self.program_type)[0])


def production_weight(production: Production, overrides: dict[str, float]) -> float:
    if production.head in ("lit", "param"):
        return 1.0
    return overrides.get(production.head, production.weight)


class Sampler:
    """Reusable top-down sampler with precomputed cumulative weights."""

    def __init__(self, cfg: Cfg, overrides: dict[str, float] | None = None):
        self.cfg = cfg
        self.overrides = overrides or {}
        self.tables: dict[NT, tuple[tuple[Production, ...], list[float]]] = {}

    def _table(self, nt: NT):
        entry = self.tables.get(nt)
        if entry is None:
            prods = self.cfg.productions[nt]
            if not prods:
                raise EmptyLanguage(f"nonterminal {nt} has no productions")
            cumulative: list[float] = []
            total = 0.0
            for p in prods:
                total += production_weight(p, self.overrides)
                cumulative.append(total)
            entry = (prods, cumulative)
            self.tables[nt] = entry
        return entry

    def draw(self, nt: NT, rng: random.Random) -> Production:
        prods, cumulative = self._table(nt)
        point = rng.random() * cumulative[-1]
        return prods[min(bisect.bisect_right(cumulative, point), len(prods) - 1)]

    def sample(self, rng: random.Random, nt: NT | None = None) -> Term:
        p = self.draw(nt or self.cfg.start, rng)
        if p.head == "lit":
            return Term("lit", value=p.value)
        if p.head == "param":
            return Term("param", value=p.value)
        return Term(
            p.head, tuple(self.sample(rng, c) for c in p.children), partial=p.partial
        )


def sample(cfg: Cfg, config: SamplerConfig, rng: random.Random | None = None) -> Term:
    """Sample one term top-down; deterministic given the rng seed."""
    rng = rng or random.Random(config.rng_seed)
    return Sampler(cfg, config.weight_overrides).sample(rng)


def sample_inputs(
    arity: int, config: SamplerConfig, rng: random.Random | None = None
) -> list[tuple]:
    """input_count argument tuples of uniformly sampled int lists."""
    rng = rng or random.Random(config.rng_seed)
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


@dataclass
class SampledProgram:
    term: Term
    program: transpile.ImpProgram  # the one translation the outputs came from
    inputs: list[tuple]
    outputs: list
    attempts: int


def sample_valid_program(
    cfg: Cfg,
    config: SamplerConfig,
    executor=None,
    rng: random.Random | None = None,
) -> SampledProgram:
    """Rejection-sample until a program passes s1-s4, executes cleanly on all
    sampled inputs, and does not produce the same output on every input.

    Each candidate that passes s1-s4 is translated once; ``executor(program,
    args)`` runs that translation on every input, and the accepted one is
    returned as ``SampledProgram.program``.
    """
    rng = rng or random.Random(config.rng_seed)
    run = executor or default_executor
    arity = cfg.arity
    sampler = Sampler(cfg, config.weight_overrides)
    for attempt in range(1, config.max_attempts + 1):
        term = sampler.sample(rng)
        if check_constraints(term, "sample", cfg.constraints, arity=arity):
            continue
        inputs = sample_inputs(arity, config, rng)
        program = transpile.translate(term, arity=arity)
        outputs = []
        ok = True
        for args in inputs:
            result = run(program, args)
            if result.status != "ok":
                ok = False
                break
            outputs.append(result.output)
        if not ok:
            continue
        if len(outputs) > 1 and all(values_equal(outputs[0], o) for o in outputs[1:]):
            continue
        return SampledProgram(term, program, inputs, outputs, attempt)
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
                for combo in _product([expand(c) for c in p.children]):
                    yield Term(p.head, tuple(combo), partial=p.partial)

    for term in expand(cfg.start):
        yield term
        produced += 1
        if limit is not None and produced >= limit:
            return


def _product(generators):
    pools = [list(g) for g in generators]
    if not pools:
        yield ()
        return
    indices = [0] * len(pools)
    while True:
        yield tuple(pool[i] for pool, i in zip(pools, indices))
        for k in reversed(range(len(pools))):
            indices[k] += 1
            if indices[k] < len(pools[k]):
                break
            indices[k] = 0
        else:
            return
