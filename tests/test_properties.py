"""Property tests over generated values, terms, and programs."""

import random

from hypothesis import given, settings, strategies as st

from mutexec.dsl import parse_sexpr, to_sexpr, typecheck
from mutexec.grammar import compile_cfg
from mutexec.minipy import interpret, parse
from mutexec.mutate import enumerate_source_mutants
from mutexec.transpile import translate
from mutexec.values import canonical_repr, parse_literal, values_equal
from reference import PlainSampler, compile_violations

values = st.recursive(
    st.integers(-1000, 1000) | st.booleans(),
    lambda children: st.lists(children, max_size=4),
    max_leaves=12,
)


@given(values)
def test_canonical_repr_parse_round_trip(value):
    assert values_equal(parse_literal(canonical_repr(value)), value)


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_minipy_arithmetic_matches_python(a, b):
    source = "def f(a, b):\n    return [a + b, a - b, a * b]"
    assert interpret(parse(source), (a, b)).output == [a + b, a - b, a * b]
    if b != 0:
        source = "def f(a, b):\n    return [a // b, a % b]"
        assert interpret(parse(source), (a, b)).output == [a // b, a % b]


@given(st.integers(-50, 50), st.integers(-50, 50))
def test_minipy_comparisons_match_python(a, b):
    source = (
        "def f(a, b):\n"
        "    return [a < b, a <= b, a > b, a >= b, a == b, a != b]"
    )
    expected = [a < b, a <= b, a > b, a >= b, a == b, a != b]
    assert interpret(parse(source), (a, b)).output == expected


CFG = compile_cfg(2, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32))
def test_sampled_terms_round_trip_and_validate(seed):
    sampler = PlainSampler(CFG)
    term = sampler.sample(random.Random(seed))
    text = to_sexpr(term)
    assert parse_sexpr(text) == term
    typecheck(term)
    assert not compile_violations(term)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_mutants_differ_in_exactly_one_token_span(seed):
    sampler = PlainSampler(CFG)
    term = sampler.sample(random.Random(seed))
    source = translate(term, arity=2).source
    original_lines = source.splitlines()
    for mutated, site in enumerate_source_mutants(source):
        lines = mutated.splitlines()
        assert len(lines) == len(original_lines)
        differing = [
            i for i, (x, y) in enumerate(zip(original_lines, lines)) if x != y
        ]
        assert differing == [site.line - 1]
