import collections
import hashlib
import itertools
import math
import random
from functools import lru_cache

import pytest

from mutexec import dsl, grammar
from mutexec.dsl import PRIMITIVES, Term, check_constraints, to_sexpr, typecheck
from mutexec.grammar import (
    REJECTION_STAGES,
    AttemptsExhausted,
    EmptyLanguage,
    Production,
    Sampler,
    SamplerConfig,
    _ARGUMENTS,
    _conditioned_tables,
    _param_bit,
    compile_cfg,
    count_derivations,
    production_weight,
    sample_inputs,
    sample_valid_program,
)
from mutexec.minipy import interpret
from mutexec.transpile import translate
from mutexec.values import values_equal
from reference import PlainSampler, _draw_tables, compile_violations, enumerate_terms

def make_cfg(arity=1, depth=4):
    return compile_cfg(arity, depth)


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
            assert not compile_violations(term)
        assert count == count_derivations(cfg) == 643
        # distinct surface terms are fewer: instantiation choices duplicate
        assert len(seen) <= count

    def test_compiled_tables_pinned(self):
        """Every nonterminal's productions in table order, and the draw
        tables built from them, for arity 1/2 x depth 4/5; the digest was
        recorded before the compiler memoised instantiations, so no memo
        can reorder a production (and with it the draws) unnoticed."""
        digest = hashlib.sha256()
        for arity in (1, 2):
            for depth in (4, 5):
                cfg = make_cfg(arity, depth)
                for nt, prods in cfg.productions.items():
                    digest.update(repr(nt).encode())
                    for p in prods:
                        digest.update(
                            repr((p.head, p.value, p.partial, p.children, p.weight)).encode())
                for cumulative, total, entries in _draw_tables(cfg, {}):
                    digest.update(repr((cumulative, total, [
                        (p.head, p.value, _param_bit(p), children) for p, children in entries
                    ])).encode())
        assert digest.hexdigest() == (
            "253c25f219e77bca1675366bf7ed7328ad630c06b0f31d238067b9c0ece1296c")

    def test_min_depth_rejected(self):
        with pytest.raises(ValueError):
            make_cfg(1, 1)

    def test_compile_never_unifies(self, monkeypatch):
        # the goals are ground, so each primitive's type is matched one way
        def refuse(*args):
            raise AssertionError("general unification while compiling")

        for name in ("unify", "_apply"):
            monkeypatch.setattr(dsl, name, refuse)
            monkeypatch.setattr(grammar, name, refuse, raising=False)
        for arity in (1, 2):
            for depth in (4, 5):
                assert compile_cfg(arity, depth).productions

    @pytest.mark.parametrize("head, value, partial, children", [
        ("nope", None, False, 0),  # unknown head
        ("index", None, False, 1),  # a child short
        ("length", None, True, 1),  # a partial with its missing argument
        ("empty", None, True, 0),  # a partial zero-arity primitive
        ("lit", None, False, 0),  # a literal without a value
        ("param", 1, False, 1),  # a parameter with a child
    ])
    def test_malformed_production_rejected(self, head, value, partial, children):
        # the sampler builds terms without Term's checks, so the productions
        # carry them
        child = make_cfg(1, 2).start
        with pytest.raises(ValueError):
            Production(head, value, partial, (child,) * children, 1.0)

    def test_short_argument_row_fails_the_compile(self, monkeypatch):
        monkeypatch.setitem(_ARGUMENTS, "index", _ARGUMENTS["index"][:1])
        with pytest.raises(ValueError, match="index expects 2 children, got 1"):
            compile_cfg(1, 4)

    def test_argument_rules_cover_every_applied_primitive(self):
        # the compiler zips argument types with these rows: a missing row
        # fails the compile and a short one fails Production's node check,
        # but a long one would go unnoticed
        applied = {p.name: p.arity for p in PRIMITIVES if p.arity}
        assert set(_ARGUMENTS) == set(applied)
        for name, row in _ARGUMENTS.items():
            assert len(row) == applied[name], name


def recursive_build(productions):
    """The term of a preorder production list, built by recursion: the
    reference for the sampler's stack-based ``build``."""
    remaining = iter(productions)

    def node():
        p = next(remaining)
        if p.head in ("lit", "param"):
            return Term(p.head, value=p.value)
        return Term(p.head, tuple([node() for _ in p.children]), partial=p.partial)

    return node()


class TestSample:
    def test_build_matches_recursive_reference(self):
        for arity, depth in ((1, 4), (2, 5)):
            sampler = PlainSampler(make_cfg(arity, depth))
            rng = random.Random(arity * 10 + depth)
            for _ in range(500):
                productions = sampler.derive(rng)
                built = sampler.build(productions)
                assert built == recursive_build(productions)
                assert to_sexpr(built) == to_sexpr(recursive_build(productions))

    def test_seeded_determinism(self):
        cfg = make_cfg(1, 5)
        first = PlainSampler(cfg).sample(random.Random(123))
        second = PlainSampler(cfg).sample(random.Random(123))
        assert first == second

    def test_first_draws_pinned(self):
        cfg = make_cfg(2, 5)
        sampler = PlainSampler(cfg)
        rng = random.Random(5)
        text = "\n".join(to_sexpr(sampler.sample(rng)) for _ in range(200))
        assert hashlib.sha256(text.encode()).hexdigest() == FIRST_200_DRAWS_SHA256

    def test_samples_typecheck_and_satisfy_constraints(self):
        cfg = make_cfg(2, 5)
        rng = random.Random(8)
        sampler = PlainSampler(cfg)
        for _ in range(500):
            term = sampler.sample(rng)
            assert term.depth() <= 5
            typecheck(term)
            assert not compile_violations(term)

    def test_degenerate_weights_single_chain(self):
        # all weight on tail forces the unique chain of tails ending in a1;
        # empty is excluded by making it unreachable in weight
        cfg = make_cfg(1, 4)
        overrides = {name: 1e-12 for name in
                     ("if", "map", "append", "extend", "init", "length",
                      "index", "empty")}
        overrides["tail"] = 1e12
        rng = random.Random(0)
        sampler = PlainSampler(cfg, overrides)
        counts = {}
        for _ in range(50):
            text = to_sexpr(sampler.sample(rng))
            counts[text] = counts.get(text, 0) + 1
        assert counts.get("(tail (tail (tail a1)))", 0) >= 45

    def test_production_frequencies_match_weight_ratios(self):
        # root productions of whole draws against analytic probabilities,
        # including if/map=5 and extend=0.05 (chi-square, p > 0.001)
        from scipy import stats

        cfg = make_cfg(1, 5)
        sampler = PlainSampler(cfg)
        productions = cfg.productions[cfg.start]
        weights = [p.weight if p.head not in ("lit", "param") else 1.0
                   for p in productions]
        total = sum(weights)
        rng = random.Random(2024)
        observed = [0] * len(productions)
        index = {id(p): i for i, p in enumerate(productions)}
        draws = 100_000
        for _ in range(draws):
            observed[index[id(sampler.derive(rng)[0])]] += 1
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
        flat = {p.name: 1.0 for p in PRIMITIVES}
        sampler = PlainSampler(cfg, flat)

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


def plain_derivations(cfg, nt):
    """Every derivation from ``nt`` as ``(productions in preorder,
    probability, parameter mask)``, from the grammar's weights alone."""
    prods = cfg.productions[nt]
    total = sum(production_weight(p, {}) for p in prods)
    out = []
    for p in prods:
        share = production_weight(p, {}) / total
        bit = 1 << (p.value - 1) if p.head == "param" else 0
        subtrees = [plain_derivations(cfg, c) for c in p.children]
        for combo in itertools.product(*subtrees):
            productions = (p,) + tuple(q for sub, _, _ in combo for q in sub)
            prob, used = share, bit
            for _, q, u in combo:
                prob *= q
                used |= u
            out.append((productions, prob, used))
    return out


def param_mask(productions):
    """The parameters a derivation uses, bit ``i - 1`` for ``a<i>``."""
    mask = 0
    for p in productions:
        mask |= _param_bit(p)
    return mask


def row_derivations(rows, i):
    """Every derivation a table row can draw, as ``(productions in
    preorder, probability)``, read off the rows' cumulative weights."""
    cumulative, total, entries = rows[i]
    bounds = [0.0] + cumulative[:-1] + [total]
    out = []
    for j, (p, children) in enumerate(entries):
        share = (bounds[j + 1] - bounds[j]) / total
        subtrees = [row_derivations(rows, c) for c in reversed(children)]
        for combo in itertools.product(*subtrees):
            productions = (p,) + tuple(q for sub, _ in combo for q in sub)
            out.append((productions, share * math.prod(q for _, q in combo)))
    return out


class TestConditionedDraws:
    """With ``uses``, the sampler draws the plain distribution conditioned
    on using exactly those parameters (s4: all of them)."""

    @pytest.mark.parametrize("arity", [1, 2])
    def test_every_derivation_has_its_conditional_probability(self, arity):
        cfg = make_cfg(arity, 3)
        every = (1 << arity) - 1
        plain = plain_derivations(cfg, cfg.start)
        assert len(plain) == count_derivations(cfg)
        assert math.isclose(sum(q for _, q, _ in plain), 1.0, rel_tol=1e-12)
        s4 = sum(q for _, q, used in plain if used == every)
        assert 0 < s4 < 1
        sampler = Sampler(cfg)
        drawn = dict(row_derivations(sampler.rows, 0))
        # a derivation that misses a parameter cannot be drawn
        assert set(drawn) == {d for d, _, used in plain if used == every}
        for productions, q, used in plain:
            if used == every:
                assert math.isclose(drawn[productions], q / s4, rel_tol=1e-9)

    @pytest.mark.parametrize("depth,draws", [(4, 2000), (5, 3000)])
    def test_draws_match_plain_draws_filtered_by_s4(self, depth, draws):
        # two-sample chi-square on the root production and on the
        # derivation size, p > 0.001 for each
        from scipy import stats

        cfg = make_cfg(2, depth)
        plain, conditioned = PlainSampler(cfg), Sampler(cfg)
        rng = random.Random(depth)
        filtered = []
        while len(filtered) < draws:
            productions = plain.derive(rng)
            if param_mask(productions) == 0b11:
                filtered.append(productions)
        exact = []
        for _ in range(draws):
            productions = conditioned.derive(rng)
            assert param_mask(productions) == 0b11
            exact.append(productions)

        pooled = filtered + exact
        roots = collections.Counter(p[0] for p in pooled)
        sizes = sorted(len(p) for p in pooled)
        edges = sorted({sizes[len(sizes) * k // 8] for k in range(1, 8)})
        features = [
            lambda p: p[0] if roots[p[0]] >= 20 else None,  # rare roots pooled
            lambda p: sum(len(p) >= edge for edge in edges),  # size octile
        ]
        for feature in features:
            counts = [collections.Counter(map(feature, sample)) for sample in (filtered, exact)]
            keys = set(counts[0]) | set(counts[1])
            observed = [[count[key] for key in keys] for count in counts]
            _, p_value, _, _ = stats.chi2_contingency(observed)
            assert p_value > 0.001, (observed, p_value)

    def test_conditioned_tables_pinned(self):
        """The tables that ``sample_valid_program`` draws from, for arity
        1/2 x depth 4/5: each row's cumulative weights and total, and each
        entry's node and child rows.  The digest was recorded before the
        compiler matched types one way and the tables were built per
        nonterminal, so neither can move a weight or a row unnoticed."""
        digest = hashlib.sha256()
        for arity in (1, 2):
            for depth in (4, 5):
                rows = _conditioned_tables(make_cfg(arity, depth), {}, (1 << arity) - 1)
                for cumulative, total, entries in rows:
                    digest.update(repr((cumulative, total, [
                        (p.head, p.value, p.partial, children) for p, children in entries
                    ])).encode())
        assert digest.hexdigest() == (
            "6a9648e717a03a80097d4c2ffdb714e43137db43c9aa20b87f38f74bd93563d4")

    def test_tables_are_cached_per_parameter_mask(self):
        # one set of tables per set of weight overrides, in any order
        cfg = make_cfg(2, 4)
        rows = Sampler(cfg).rows
        assert Sampler(cfg).rows is rows
        assert Sampler(cfg, {}).rows is rows
        flat = Sampler(cfg, {"if": 1.0, "map": 1.0})
        assert flat.rows is not rows
        assert Sampler(cfg, {"map": 1.0, "if": 1.0}).rows is flat.rows
        assert flat.rows == _conditioned_tables(cfg, {"if": 1.0, "map": 1.0}, 0b11)

    def test_no_program_using_every_parameter_is_an_empty_language(self):
        # at depth 2 no term holds three lists, so s4 cannot hold at arity 3
        cfg = make_cfg(3, 2)
        assert count_derivations(cfg) > 0
        with pytest.raises(EmptyLanguage):
            sample_valid_program(cfg, SamplerConfig(), rng=random.Random(0))


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
        config = SamplerConfig()
        for args in sample_inputs(2, config, random.Random(4)):
            assert len(args) == 2
            assert all(isinstance(a, list) for a in args)

    def test_seeded_byte_identical(self):
        config = SamplerConfig()
        assert (sample_inputs(2, config, random.Random(9))
                == sample_inputs(2, config, random.Random(9)))

    # range widths 1, 2, 3, 4, 6 and 8, for lengths and for elements
    @pytest.mark.parametrize("lengths, elements", [
        ((3, 3), (0, 0)),
        ((1, 2), (0, 1)),
        ((0, 2), (-1, 1)),
        ((2, 5), (-3, 0)),
        ((3, 8), (0, 5)),
        ((0, 7), (-4, 3)),
    ])
    def test_draws_equal_randint(self, lengths, elements):
        config = SamplerConfig(input_count=4, list_len_range=lengths,
                               element_range=elements)
        for seed in range(20):
            rng, reference = random.Random(seed), random.Random(seed)
            expected = [
                tuple([reference.randint(*elements)
                       for _ in range(reference.randint(*lengths))] for _ in range(2))
                for _ in range(4)
            ]
            assert sample_inputs(2, config, rng) == expected
            assert rng.getstate() == reference.getstate()  # same stream position

    @pytest.mark.parametrize("fields", [
        {"list_len_range": (5, 3)},
        {"element_range": (2, 1)},
        {"list_len_range": (-2, 0)},
        {"input_count": 0},
    ])
    def test_bad_settings_rejected(self, fields):
        with pytest.raises(ValueError):
            SamplerConfig(**fields)


class _FakeResult:
    def __init__(self, status, output=None):
        self.status = status
        self.output = output


class TestSampleValidProgram:
    def test_erroring_program_rejected(self):
        cfg = make_cfg(1, 4)
        config = SamplerConfig()
        calls = []

        def executor(program, args):
            calls.append(program)
            # first sampled program errors on its second input
            if len({id(p) for p in calls}) == 1 and len(calls) == 2:
                return _FakeResult("error")
            return _FakeResult("ok", [len(calls), len(args)])

        result = sample_valid_program(cfg, config, executor, rng=random.Random(3))
        assert result.attempts > 1
        # the ground truths are the executor's outputs, not the screen's
        n = len(calls)
        assert result.outputs == [[n - 2, 1], [n - 1, 1], [n, 1]]

    def test_constant_output_rejected(self):
        cfg = make_cfg(1, 4)
        config = SamplerConfig(max_attempts=30)

        def executor(program, args):
            return _FakeResult("ok", [7])  # same output for every input

        with pytest.raises(AttemptsExhausted):
            sample_valid_program(cfg, config, executor, rng=random.Random(3))

    def test_valid_program_properties(self):
        cfg = make_cfg(1, 4)
        config = SamplerConfig()
        result = sample_valid_program(cfg, config, rng=random.Random(12))
        assert len(result.inputs) == 3
        assert len(result.outputs) == 3
        assert not check_constraints(result.term, arity=1)
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

    def test_rejections_sum_to_attempts_minus_one(self):
        cfg = make_cfg(2, 5)
        config = SamplerConfig()
        rng = random.Random(21)
        for _ in range(20):
            result = sample_valid_program(cfg, config, rng=rng)
            assert set(result.rejections) == set(REJECTION_STAGES)
            assert sum(result.rejections.values()) == result.attempts - 1

    def test_rejections_match_a_replay_of_the_plain_loop(self):
        # the same rng replayed through a draw that uses every parameter ->
        # check -> translate -> interpret, counting each rejection where
        # that loop finds it; no draw misses a parameter, so s4 counts 0
        totals = dict.fromkeys(REJECTION_STAGES, 0)
        config = SamplerConfig()
        for arity, depth in ((1, 4), (2, 5)):
            cfg = make_cfg(arity, depth)
            sampler = Sampler(cfg)
            staged, replay = random.Random(5), random.Random(5)
            for _ in range(15):
                result = sample_valid_program(cfg, config, rng=staged)
                counts = dict.fromkeys(REJECTION_STAGES, 0)
                while True:
                    term = sampler.sample(replay)
                    rules = {v.rule for v in check_constraints(term, arity=arity)}
                    if rules:
                        counts["s4" if "s4" in rules else min(rules)] += 1
                        continue
                    inputs = sample_inputs(arity, config, replay)
                    program = translate(term, arity=arity)
                    runs = [interpret(program.ast, args) for args in inputs]
                    if any(run.status != "ok" for run in runs):
                        counts["runtime_error"] += 1
                    elif all(values_equal(runs[0].output, run.output) for run in runs[1:]):
                        counts["constant_output"] += 1
                    else:
                        break
                assert result.term == term
                assert result.inputs == inputs
                assert all(values_equal(run.output, output)
                           for run, output in zip(runs, result.outputs))
                assert result.rejections == counts
                for stage, n in counts.items():
                    totals[stage] += n
        assert totals["s4"] == 0
        assert all(totals[stage] for stage in ("s3", "runtime_error", "constant_output"))

    def test_every_program_uses_every_parameter(self):
        cfg = make_cfg(2, 4)
        rng = random.Random(6)
        results = [sample_valid_program(cfg, SamplerConfig(), rng=rng) for _ in range(30)]
        assert all({node.value for node in r.term.walk() if node.is_param} == {1, 2}
                   for r in results)
        # s4 is part of the draw: no draw misses a parameter
        assert all(r.rejections["s4"] == 0 for r in results)


# measured once at the frozen seed; guards sampler behavior drift (50
# valid programs in 507 attempts: ~9.9% acceptance at defaults, where an
# attempt is a draw that already uses every parameter)
ACCEPTANCE_ATTEMPTS_SEED_1234 = 507

# sha256 of the first 200 Sampler.sample terms at arity 2, depth 5, seed 5,
# one s-expression per line; a change to what a seed draws has to update
# this on purpose
FIRST_200_DRAWS_SHA256 = "f6f12b0d14432a5a71f1a8fbccfccc6dab98366ec436515e60961834b6a5cca5"
