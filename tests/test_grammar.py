import random
from functools import lru_cache

import pytest

from mutexec.dsl import (
    INT,
    TList,
    check_constraints,
    list_dsl,
    to_sexpr,
    typecheck,
)
from mutexec.grammar import (
    AttemptsExhausted,
    EmptyLanguage,
    Sampler,
    SamplerConfig,
    compile_cfg,
    count_derivations,
    enumerate_terms,
    list_program_type,
    sample,
    sample_inputs,
    sample_valid_program,
)
from mutexec.minipy import interpret
from mutexec.transpile import translate

PRIMS, CONSTRAINTS = list_dsl()


def make_cfg(arity=1, depth=4, constraints=CONSTRAINTS):
    return compile_cfg(PRIMS, constraints, list_program_type(arity), depth)


# ---------------------------------------------------------------------------
# Independent derivation counter: a direct DP over the language definition,
# shares nothing with the compiler.  Types are "int" / "bool" / ("L", t).

INT_T, BOOL_T = "int", "bool"


def L(t):
    return ("L", t)


def _is_list(t):
    return isinstance(t, tuple)


def _nesting(t):
    return 0 if isinstance(t, str) else 1 + _nesting(t[1])


def brute_force_count(arity: int, maxd: int) -> int:
    elem_types = []
    for base in (INT_T, BOOL_T):
        t = base
        while _nesting(t) + 1 <= maxd:
            elem_types.append(t)
            t = L(t)

    @lru_cache(maxsize=None)
    def val(ty, d, no_empty=False, no_lit=False, neg1=False):
        if d < 1:
            return 0
        n = 0
        if ty == INT_T and not no_lit:
            n += 7 if neg1 else 6
        if ty == L(INT_T):
            n += arity
        if _is_list(ty) and not no_empty:
            n += 1
        if d < 2:
            return n
        n += val(BOOL_T, d - 1) * val(ty, d - 1) ** 2  # if
        if _is_list(ty):
            e = ty[1]
            for t0 in elem_types:  # map, one production per element type
                n += fn(t0, e, d - 1) * val(L(t0), d - 1, no_empty=True)
            n += val(e, d - 1) * val(ty, d - 1)  # append
            n += val(ty, d - 1) * val(ty, d - 1, no_empty=True)  # extend
            n += 2 * val(ty, d - 1, no_empty=True)  # init, tail
        if ty == INT_T:
            for t0 in elem_types:  # length
                n += val(L(t0), d - 1, no_empty=True)
        n += val(INT_T, d - 1, neg1=True) * val(L(ty), d - 1, no_empty=True)  # index
        if ty == BOOL_T:
            n += 3 * val(INT_T, d - 1, no_lit=True) * val(INT_T, d - 1)  # == < >
            n += 2 * val(BOOL_T, d - 1) ** 2  # && ||
            n += val(BOOL_T, d - 1)  # !
        return n

    @lru_cache(maxsize=None)
    def fn(t0, t1, d):
        if d < 1:
            return 0
        n = 0
        if _is_list(t0) and t0 == t1:
            n += 2  # init, tail
        if _is_list(t0) and t1 == INT_T:
            n += 1  # length
        if t0 == BOOL_T and t1 == BOOL_T:
            n += 1  # !
        if d < 2:
            return n
        if t0 == t1:
            n += val(BOOL_T, d - 1) * val(t0, d - 1)  # if
        if _is_list(t0) and _is_list(t1):
            n += fn(t0[1], t1[1], d - 1)  # map
        if _is_list(t0) and t0 == t1:
            n += val(t0[1], d - 1)  # append
            n += val(t0, d - 1)  # extend
        if _is_list(t0) and t1 == t0[1]:
            n += val(INT_T, d - 1, neg1=True)  # index
        if t0 == INT_T and t1 == BOOL_T:
            n += 3 * val(INT_T, d - 1, no_lit=True)  # == < >
        if t0 == BOOL_T and t1 == BOOL_T:
            n += 2 * val(BOOL_T, d - 1)  # && ||
        return n

    return val(L(INT_T), maxd)


class TestCompile:
    def test_nonzero_language(self):
        cfg = make_cfg(1, 4)
        assert count_derivations(cfg) > 0

    def test_comparison_first_child_excludes_literals(self):
        cfg = make_cfg(1, 5)
        for nt, productions in cfg.productions.items():
            for production in productions:
                if production.head in ("==", "<", ">"):
                    first = production.children[0]
                    assert first.no_lit, (nt, production)
                    for p in cfg.productions[first]:
                        assert p.head != "lit"

    def test_no_empty_in_restricted_positions(self):
        cfg = make_cfg(1, 5)
        for productions in cfg.productions.values():
            for production in productions:
                if production.partial:
                    continue
                restricted = {
                    "extend": [1], "map": [1], "length": [0],
                    "init": [0], "tail": [0], "index": [1],
                }.get(production.head, [])
                for i in restricted:
                    child = production.children[i]
                    assert child.no_empty
                    assert all(p.head != "empty" for p in cfg.productions[child])

    def test_minus_one_only_under_index(self):
        cfg = make_cfg(1, 5)
        for nt, productions in cfg.productions.items():
            for production in productions:
                if production.head == "lit" and production.value == -1:
                    assert nt.allow_neg1
        # and index's first child does admit it
        for productions in cfg.productions.values():
            for production in productions:
                if production.head == "index":
                    first = production.children[0]
                    assert any(
                        p.head == "lit" and p.value == -1
                        for p in cfg.productions[first]
                    )
                    break

    def test_derivation_count_regression(self):
        # independent DP and grammar DP agree; value frozen as a regression
        # constant for the default constraint set
        assert brute_force_count(1, 4) == 140418280
        assert count_derivations(make_cfg(1, 4)) == 140418280

    def test_derivation_counts_match_brute_force(self):
        for arity, depth in ((1, 3), (1, 4), (2, 4), (2, 5)):
            assert count_derivations(make_cfg(arity, depth)) == brute_force_count(
                arity, depth
            ), (arity, depth)

    def test_depth3_terms_all_valid(self):
        cfg = make_cfg(1, 3)
        count = 0
        seen = set()
        for term in enumerate_terms(cfg):
            count += 1
            seen.add(to_sexpr(term))
            assert term.depth() <= 3
            typecheck(term)
            assert not check_constraints(term, "compile")
        assert count == count_derivations(cfg) == 643
        # distinct surface terms are fewer: instantiation choices duplicate
        assert len(seen) <= count

    def test_compile_rule_toggles_reshape_the_language(self):
        default_count = count_derivations(make_cfg(1, 4))
        relaxed = CONSTRAINTS.without("c1")
        relaxed_cfg = make_cfg(1, 4, relaxed)
        # comparisons may now take literal first arguments, so the language grows
        assert count_derivations(relaxed_cfg) > default_count
        found_literal_first = False
        for productions in relaxed_cfg.productions.values():
            for production in productions:
                if production.head in ("==", "<", ">") and not production.partial:
                    first = production.children[0]
                    if any(p.head == "lit" for p in relaxed_cfg.productions[first]):
                        found_literal_first = True
        assert found_literal_first

    def test_min_depth_rejected(self):
        with pytest.raises(ValueError):
            make_cfg(1, 1)

    def test_empty_language_reported(self):
        # bool-typed programs cannot exist at depth 2 (comparisons need
        # non-literal first arguments, which need depth >= 2 themselves)
        from mutexec.dsl import BOOL, fun_type

        with pytest.raises(EmptyLanguage):
            compile_cfg(PRIMS, CONSTRAINTS, fun_type(TList(INT), BOOL), 2)


class TestSample:
    def test_seeded_determinism(self):
        cfg = make_cfg(1, 5)
        config = SamplerConfig(rng_seed=123)
        first = sample(cfg, config)
        second = sample(cfg, config)
        assert first == second
        assert to_sexpr(first) == to_sexpr(sample(cfg, config, random.Random(123)))

    def test_samples_typecheck_and_satisfy_constraints(self):
        cfg = make_cfg(2, 5)
        rng = random.Random(8)
        sampler = Sampler(cfg)
        for _ in range(500):
            term = sampler.sample(rng)
            assert term.depth() <= 5
            typecheck(term)
            assert not check_constraints(term, "compile")

    def test_degenerate_weights_single_chain(self):
        # all weight on tail forces the unique chain of tails ending in a1;
        # empty is excluded by making it unreachable in weight
        cfg = make_cfg(1, 4)
        overrides = {name: 1e-12 for name in
                     ("if", "map", "append", "extend", "init", "length",
                      "index", "empty")}
        overrides["tail"] = 1e12
        rng = random.Random(0)
        sampler = Sampler(cfg, overrides)
        counts = {}
        for _ in range(50):
            text = to_sexpr(sampler.sample(rng))
            counts[text] = counts.get(text, 0) + 1
        assert counts.get("(tail (tail (tail a1)))", 0) >= 45

    def test_production_frequencies_match_weight_ratios(self):
        # draws at the start nonterminal against analytic probabilities,
        # including if/map=5 and extend=0.05 (chi-square, p > 0.001)
        from scipy import stats

        cfg = make_cfg(1, 5)
        sampler = Sampler(cfg)
        productions = cfg.productions[cfg.start]
        weights = [p.weight if p.head not in ("lit", "param") else 1.0
                   for p in productions]
        total = sum(weights)
        rng = random.Random(2024)
        observed = [0] * len(productions)
        index = {id(p): i for i, p in enumerate(productions)}
        draws = 100_000
        for _ in range(draws):
            observed[index[id(sampler.draw(cfg.start, rng))]] += 1
        expected = [draws * w / total for w in weights]
        heads = {p.head for p in productions}
        assert {"if", "map", "extend"} <= heads
        chi2, p_value = stats.chisquare(observed, expected)
        assert p_value > 0.001, (chi2, p_value)

    def test_tree_frequencies_match_analytic_probabilities(self):
        # equal weights, tiny language: empirical term distribution matches
        # the product of production probabilities
        from scipy import stats

        cfg = make_cfg(1, 3)
        flat = {p.name: 1.0 for p in PRIMS}
        sampler = Sampler(cfg, flat)

        def analytic(nt):
            prods = cfg.productions[nt]
            out = {}
            for p in prods:
                prob = 1.0 / len(prods)
                subs = [analytic(c) for c in p.children]
                combos = [("", prob)]
                for sub in subs:
                    combos = [
                        (text + "|" + t, pr * q)
                        for text, pr in combos
                        for t, q in sub.items()
                    ]
                if p.head == "lit":
                    key = str(p.value)
                elif p.head == "param":
                    key = f"a{p.value}"
                else:
                    key = p.head
                for text, pr in combos:
                    k = key + text
                    out[k] = out.get(k, 0.0) + pr
            return out

        probs = analytic(cfg.start)
        assert abs(sum(probs.values()) - 1.0) < 1e-9
        rng = random.Random(77)
        draws = 40_000
        observed: dict[str, int] = {}
        for _ in range(draws):
            key = _flatten(to_sexpr(sampler.sample(rng)))
            observed[key] = observed.get(key, 0) + 1

        top = sorted(probs.items(), key=lambda kv: -kv[1])[:20]
        obs, exp = [], []
        for key, prob in top:
            obs.append(observed.get(key, 0))
            exp.append(prob * draws)
        obs.append(draws - sum(obs))
        exp.append(draws - sum(exp))
        chi2, p_value = stats.chisquare(obs, exp)
        assert p_value > 0.001, (chi2, p_value)


def _flatten(sexpr_text: str) -> str:
    return "|".join(sexpr_text.replace("(", " ").replace(")", " ").split())


class TestSampleInputs:
    def test_shapes_and_ranges(self):
        config = SamplerConfig()
        inputs = sample_inputs(1, config, random.Random(4))
        assert len(inputs) == 3
        for args in inputs:
            assert len(args) == 1
            assert 3 <= len(args[0]) <= 5
            assert all(0 <= v <= 5 for v in args[0])

    def test_two_argument_inputs(self):
        config = SamplerConfig(program_type=list_program_type(2))
        for args in sample_inputs(2, config, random.Random(4)):
            assert len(args) == 2
            assert all(isinstance(a, list) for a in args)

    def test_seeded_byte_identical(self):
        config = SamplerConfig(rng_seed=9)
        assert sample_inputs(2, config) == sample_inputs(2, config)


class _FakeResult:
    def __init__(self, status, output=None):
        self.status = status
        self.output = output


class TestSampleValidProgram:
    def test_erroring_program_rejected(self):
        cfg = make_cfg(1, 4)
        config = SamplerConfig(max_depth=4)
        calls = []

        def executor(program, args):
            calls.append(program)
            # first sampled program errors on its second input
            if len({id(p) for p in calls}) == 1 and len(calls) == 2:
                return _FakeResult("error")
            return _FakeResult("ok", [len(calls), len(args)])

        result = sample_valid_program(cfg, config, executor, random.Random(3))
        assert result.attempts > 1

    def test_constant_output_rejected(self):
        cfg = make_cfg(1, 4)
        config = SamplerConfig(max_depth=4, max_attempts=30)

        def executor(program, args):
            return _FakeResult("ok", [7])  # same output for every input

        with pytest.raises(AttemptsExhausted):
            sample_valid_program(cfg, config, executor, random.Random(3))

    def test_valid_program_properties(self):
        cfg = make_cfg(1, 4)
        config = SamplerConfig(max_depth=4)
        result = sample_valid_program(cfg, config, rng=random.Random(12))
        assert len(result.inputs) == 3
        assert len(result.outputs) == 3
        assert not check_constraints(result.term, "sample", arity=1)
        outputs = [str(o) for o in result.outputs]
        assert len(set(outputs)) > 1
        # the returned translation is the one the outputs came from
        assert result.program.source == translate(result.term, arity=1).source
        for args, output in zip(result.inputs, result.outputs):
            assert interpret(result.program.ast, args).output == output

    def test_acceptance_rate_regression(self):
        # attempts needed for 50 programs at defaults, frozen for seed 1234
        cfg = make_cfg(1, 5)
        config = SamplerConfig()
        rng = random.Random(1234)
        attempts = sum(
            sample_valid_program(cfg, config, rng=rng).attempts for _ in range(50)
        )
        assert attempts == ACCEPTANCE_ATTEMPTS_SEED_1234


# measured once at the frozen seed; guards sampler behavior drift
# (50 valid programs in 1180 attempts: ~4.2% acceptance at defaults)
ACCEPTANCE_ATTEMPTS_SEED_1234 = 1180
