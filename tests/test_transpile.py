import hashlib
import random

import pytest
from conftest import read_fixture

from mutexec import minipy
from mutexec.dsl import (
    PRIMITIVES,
    check_constraints,
    eval_dsl_outcomes,
    parse_sexpr,
    typecheck,
)
from mutexec.grammar import (
    SamplerConfig,
    Sampler,
    compile_cfg,
    sample_inputs,
    sample_valid_program,
)
from mutexec.problems import load_jsonl
from mutexec.transpile import UntranslatableNode, translate
from mutexec.values import canonical_repr, parse_args
from reference import PlainSampler, compile_violations, eval_dsl_outcome

GOLDEN_TERM = "(map (if (> (length a2) 2) (index 0 a2)) (extend (tail a1) a2))"


class TestTranslate:
    def test_tail(self):
        program = translate(parse_sexpr("(tail a1)"), arity=1)
        assert program.source == "def f(a1):\n    a1.pop(0)\n    return a1"

    def test_append_length(self):
        program = translate(parse_sexpr("(append (length a1) a1)"), arity=1)
        assert program.source == (
            "def f(a1):\n    a1.append(len(a1))\n    return a1"
        )

    def test_golden_depth5_two_arg_nested_map_if(self):
        # golden produced by a manual trace of the translation procedure;
        # see the fixture for the worked input/output example
        term = parse_sexpr(GOLDEN_TERM)
        assert term.depth() == 5
        program = translate(term, arity=2)
        assert program.source == read_fixture("golden_depth5.py").rstrip("\n")
        result = minipy.interpret(program.ast, ([4, 1], [3, 0, 2]))
        assert result.status == "ok"
        assert result.output == [3, 3, 3, 3]

    def test_function_name_configurable(self):
        program = translate(parse_sexpr("(tail a1)"), function_name="op", arity=1)
        assert program.source.startswith("def op(a1):")
        assert program.function_name == "op"

    def test_empty_initialization_single_and_tuple(self):
        one = translate(parse_sexpr("(append (length a1) empty)"), arity=1)
        assert "\n    v1 = []\n" in one.source
        two = translate(
            parse_sexpr("(extend (append 1 empty) (append 2 empty))"), arity=1
        )
        assert "\n    v1, v2 = [], []\n" in two.source

    def test_loop_variables_nest_by_depth(self):
        term = parse_sexpr("(map (map (length)) (append (append a1 empty) empty))")
        program = translate(term, arity=1)
        assert "for i in range(len(v2)):" in program.source
        assert "for j in range(len(v2[i])):" in program.source


def _non_blank_lines(source: str) -> int:
    return sum(1 for line in source.split("\n") if line.strip())


class TestLoc:
    def test_tail_is_three_lines(self):
        program = translate(parse_sexpr("(tail a1)"), arity=1)
        assert program.loc == _non_blank_lines(program.source) == 3

    def test_if_image_is_four_lines_plus_header_and_return(self):
        # minimal conditional: header + 4 branch lines + return
        minimal = translate(parse_sexpr("(if (> (length a1) 2) a1 a1)"), arity=1)
        assert minimal.loc == _non_blank_lines(minimal.source) == 6
        # with one extra statement feeding the else-branch
        term = parse_sexpr("(if (> (length a1) 2) a1 (tail a1))")
        program = translate(term, arity=1)
        assert program.loc == _non_blank_lines(program.source) == 7


class TestRoundTripAndSemantics:
    def make_cfg(self, arity, depth):
        return compile_cfg(arity, depth)

    def test_sampled_programs_round_trip_and_agree(self):
        rng = random.Random(99)
        cfg = self.make_cfg(1, 5)
        sampler = PlainSampler(cfg)
        for _ in range(300):
            term = sampler.sample(rng)
            program = translate(term, arity=1)
            # round-trip: the emitted source parses back
            reparsed = minipy.parse(program.source)
            assert len(reparsed.functions()) == 1
            args = ([rng.randint(0, 5) for _ in range(rng.randint(3, 5))],)
            oracle = eval_dsl_outcome(term, args)
            result = minipy.interpret(program.ast, args)
            assert (oracle.status == "ok") == (result.status == "ok"), program.source
            if oracle.status == "ok":
                assert oracle.output == result.output, program.source
            else:
                assert result.error_kind == oracle.error_kind, program.source

    def test_emission_order_variables_defined_before_use(self):
        # every variable read must be preceded by its initialization:
        # executing with the interpreter would raise NameError otherwise
        rng = random.Random(5)
        cfg = self.make_cfg(2, 5)
        config = SamplerConfig()
        for _ in range(40):
            sp = sample_valid_program(cfg, config, rng=rng)
            for args in sp.inputs:
                result = minipy.interpret(sp.program.ast, args)
                assert result.error_kind != "NameError"

    def test_adversarial_corner_terms_agree(self):
        # hand-constructed shapes that stress aliasing, expression timing,
        # indexed receivers, and partial applications
        cases = [
            # indexed receiver as the mapped list
            "(map (length) (index 0 (append (append a1 empty) empty)))",
            # negative-index partial over a singleton list-of-lists
            "(map (index -1) (append a1 empty))",
            # vacuous extend of each element with a shared empty store
            "(map (extend empty) (append a1 empty))",
            # element mutation through a param alias inside the mapped list
            "(map (tail) (append a1 empty))",
            # append with an expression argument read per iteration
            "(map (append (length a2)) (append a1 empty))",
            # both-branch effects feeding an if selected by mutated state
            "(if (== (length (tail a1)) 2) (append 0 a1) (init a1))",
            # partial if over booleans produced by an aliasing map
            "(map (if (> (length a1) 1) (== (length a1) 2)) "
            "(map (< (length a2)) a1))",
            # nested function-position map over double-nested empties
            "(map (map (init)) (append (append (append 1 a1) empty) empty))",
            # comparison partials turning an int list into bools in place
            "(extend (map (== (length a2)) a1) (map (> (length a1)) a2))",
            # logical partial over a bool list
            "(map (|| (< (length a2) 2)) (map (== (length a2)) a1))",
            # deep pop chain that errors on short inputs only
            "(tail (tail (tail (init a1))))",
        ]

        inputs = [([1, 2, 3], [4, 0]), ([2], [5, 5, 5]), ([0, 1, 2, 3, 4], [1])]
        for text in cases:
            term = parse_sexpr(text)
            typecheck(term)
            assert not compile_violations(term), text
            arity = max((n.value for n in term.walk() if n.is_param), default=1)
            program = translate(term, arity=arity)
            for args in inputs:
                args = args[:arity]
                oracle = eval_dsl_outcome(term, args)
                result = minipy.interpret(program.ast, args)
                assert (oracle.status == "ok") == (result.status == "ok"), (
                    text, args, program.source,
                )
                if oracle.status == "ok":
                    assert oracle.output == result.output, (text, args, program.source)
                else:
                    assert oracle.error_kind == result.error_kind, (text, args)

    def test_depth6_stress_agreement(self):
        # beyond the dataset's default bound: rarer shapes, deeper nesting
        rng = random.Random(60606)
        cfg = self.make_cfg(2, 6)
        sampler = PlainSampler(cfg)
        config = SamplerConfig()

        for _ in range(200):
            term = sampler.sample(rng)
            program = translate(term, arity=2)
            for args in sample_inputs(2, config, rng):
                oracle = eval_dsl_outcome(term, args)
                result = minipy.interpret(program.ast, args)
                assert (oracle.status == "ok") == (result.status == "ok"), (
                    program.source, args,
                )
                if oracle.status == "ok":
                    assert oracle.output == result.output, (program.source, args)
                else:
                    assert oracle.error_kind == result.error_kind

    def test_loc_distribution_covers_all_bins(self):
        rng = random.Random(31415)
        seen = set()
        samples = []
        for arity in (1, 2):
            cfg = self.make_cfg(arity, 5)
            sampler = PlainSampler(cfg)
            for _ in range(500):
                term = sampler.sample(rng)
                samples.append(translate(term, arity=arity).loc)
        for value in samples:
            for lo, hi in ((4, 8), (8, 12), (12, 16), (16, 20), (20, 24)):
                if lo <= value < hi:
                    seen.add((lo, hi))
        assert len(seen) == 5, f"bins covered: {sorted(seen)}"


# ---------------------------------------------------------------------------
# The AST is built in the translation walk; it must be the AST the stored
# source parses to, and run the same (differential testing of the builder
# against the parser).


def _run(ast, args):
    result = minipy.interpret(ast, args)
    value = repr(result.output) if result.status == "ok" else result.error_kind
    return result.status, value, result.error_line, result.steps, result.covered_lines


def assert_built_ast_is_parsed_ast(program, inputs):
    """``program.ast`` equals ``minipy.parse(program.source)`` and interprets
    the same on every input; returns the error results of the built AST."""
    parsed = minipy.parse(program.source)
    assert repr(program.ast) == repr(parsed), program.source
    errors = []
    for args in inputs:
        built = _run(program.ast, args)
        assert built == _run(parsed, args), (program.source, args)
        if built[0] == "error":
            errors.append(built)
    return errors


HAND_WRITTEN_TERMS = {
    # a right-nested connective: the text groups it to the left
    "right_nested_and":
        "(if (&& (> (length a1) 1) (&& (< (length a1) 5) (== (length a1) 3))) a1 (tail a1))",
    "right_nested_or":
        "(if (|| (> (length a1) 1) (|| (< (length a1) 5) (== (length a1) 3))) a1 (tail a1))",
    "right_nested_and_of_and":
        "(if (&& (== (length a1) 1) (&& (&& (< (length a1) 5) (> (length a1) 0)) "
        "(== (length a1) 3))) a1 (init a1))",
    # mixed connectives, parenthesized where they bind more loosely
    "or_and_or":
        "(if (|| (== (length a1) 1) (&& (< (length a1) 5) (|| (> (length a1) 3) "
        "(== (length a1) 0)))) a1 (init a1))",
    "and_of_or": "(if (&& (|| (== (length a1) 1) (< (length a1) 5)) (> (length a1) 2)) "
                 "a1 (init a1))",
    # ! over a connective, a comparison and another !
    "not_or": "(if (! (|| (> (length a1) 1) (== (length a1) 3))) a1 (init a1))",
    "not_and_not_not":
        "(if (&& (! (&& (> (length a1) 1) (< (length a1) 4))) (! (! (== (length a1) 3)))) "
        "a1 (tail a1))",
    # -1 under index, as a value and as a map function
    "index_minus_one": "(append (index -1 a1) a1)",
    "map_index_minus_one": "(map (index -1) (append a1 empty))",
    "compare_indexes": "(if (> (index -1 a1) (index 0 a1)) a1 (tail a1))",
    # nested maps: loop variables i, j, k
    "map_map_map": "(map (map (map (init))) (append (append (append a1 empty) empty) empty))",
    "map_map": "(map (map (length)) (append (append a1 empty) empty))",
    # if as a map function
    "map_if": "(map (if (> (length a1) 1) (== (length a1) 2)) (map (< (length a2)) a1))",
    "map_map_if": "(map (map (if (> (length a1) 2) (index 0 a1))) (append a1 empty))",
    # list operations as map functions
    "map_append": "(map (append (length a1)) (append a1 empty))",
    "map_extend": "(map (extend a1) (append a1 empty))",
    "map_init": "(map (init) (append a1 empty))",
    "map_tail": "(map (tail) (append a1 empty))",
    # both rows are a1: each row's tail pops a1 again
    "map_tail_aliased_rows": "(map (tail) (append a1 (append a1 empty)))",
    # pure map functions
    "map_over_index": "(map (length) (index 0 (append (append a1 empty) empty)))",
    "map_compare": "(map (== (length a2)) a1)",
    "map_and_not": "(map (&& (! (== (length a1) 2))) (map (> (length a2)) a1))",
    "map_or_of_and":
        "(map (|| (&& (< (length a1) 2) (> (length a2) 1))) (map (== (length a2)) a1))",
    "map_and_of_or":
        "(map (&& (|| (< (length a1) 2) (> (length a2) 1))) (map (== (length a2)) a1))",
    "map_not": "(map (!) (map (< (length a1)) a2))",
    # one, two and three empties
    "one_empty": "(append (length a1) empty)",
    "two_empties": "(extend (append (length a1) empty) (append 2 empty))",
    "three_empties":
        "(extend (extend (append 1 empty) (append (length a1) empty)) (append 3 empty))",
    # a non-list root
    "int_root": "(index -1 (tail a1))",
}

HAND_INPUTS = [([1, 2, 3], [4, 0]), ([2], [5, 5, 5]), ([0, 1, 2, 3, 4], [1]), ([], [])]

# sha256 of ``_pinned_record`` over every HAND_WRITTEN_TERMS case in order, and
# over the candidates of ``test_sampled_draws`` per (arity, depth): the
# evaluator's outcomes and the translation of terms the screen accepts and
# rejects alike
HAND_WRITTEN_SHA256 = "fa89f80d9b04704c6f955423cd3e5dc62caca58bff406708dd5fd3246a4b411d"
SAMPLED_DRAWS_SHA256 = {
    (1, 4): "a44ed24989a6846efc4b79df28de26c840b2751b208bc4b109327cbbffcdbb60",
    (1, 5): "63b2da55a88383514b1f86d74da343f93b8be7f87ba814ffb8cc9fc7f8971049",
    (2, 4): "a9be12bd1b83241d6ff2ea0ab7801428c1f5c15cab6a48167a1157b24fd1097a",
    (2, 5): "7c9534c10bf7610fa0a500e591b273c82d22de6d296aa15b0218e54f12fd0910",
}


def _hand_case(name):
    term = parse_sexpr(HAND_WRITTEN_TERMS[name])
    arity = max(n.value for n in term.walk() if n.is_param)
    return term, arity, [args[:arity] for args in HAND_INPUTS]


def _pinned_record(term, program, inputs) -> bytes:
    outcomes = [(o.status, canonical_repr(o.output) if o.status == "ok" else None,
                 o.error_kind) for o in eval_dsl_outcomes(term, inputs)]
    return repr((outcomes, program.source, program.loc, repr(program.ast))).encode() + b"\n"


class TestBuiltAst:
    def test_small_corpus(self, small_corpus):
        for problem in small_corpus:
            term = parse_sexpr(problem.dsl_text)
            program = translate(term, arity=problem.arity)
            assert program.source == problem.source
            assert program.loc == problem.loc
            assert_built_ast_is_parsed_ast(program, [parse_args(problem.input)])

    @pytest.mark.parametrize("name", HAND_WRITTEN_TERMS)
    def test_hand_written_terms(self, name):
        term, arity, inputs = _hand_case(name)
        typecheck(term)
        program = translate(term, arity=arity)
        assert_built_ast_is_parsed_ast(program, inputs)
        # the oracle pair agrees: the same value, or the same error kind
        for args, oracle in zip(inputs, eval_dsl_outcomes(term, inputs)):
            result = minipy.interpret(program.ast, args)
            assert (oracle.status, oracle.error_kind) == (result.status, result.error_kind)
            if oracle.status == "ok":
                assert canonical_repr(oracle.output) == canonical_repr(result.output), args

    def test_hand_written_partial_heads_cover_every_primitive(self):
        heads = {node.head for text in HAND_WRITTEN_TERMS.values()
                 for node in parse_sexpr(text).walk() if node.partial}
        assert heads == {p.name for p in PRIMITIVES if p.arity}

    def test_hand_written_terms_pinned(self):
        digest = hashlib.sha256()
        for name in HAND_WRITTEN_TERMS:
            term, arity, inputs = _hand_case(name)
            digest.update(_pinned_record(term, translate(term, arity=arity), inputs))
        assert digest.hexdigest() == HAND_WRITTEN_SHA256

    def test_right_nested_connective_is_left_grouped(self):
        term = parse_sexpr(HAND_WRITTEN_TERMS["right_nested_and"])
        program = translate(term, arity=1)
        assert "if len(a1) > 1 and len(a1) < 5 and len(a1) == 3:" in program.source
        cond = program.ast.body[0].body[1].cond
        assert isinstance(cond.left, minipy.BoolOp) and isinstance(cond.right, minipy.Compare)

    @pytest.mark.parametrize("arity,depth", [(1, 4), (1, 5), (2, 4), (2, 5)])
    def test_sampled_draws(self, arity, depth):
        # every draw that passes s1-s4, the ones the screen would reject too
        rng = random.Random(f"built-ast:{arity}:{depth}")
        sampler = Sampler(compile_cfg(arity, depth))
        config = SamplerConfig()
        digest = hashlib.sha256()
        checked = 0
        pop_errors = index_errors = 0
        while checked < 2000:
            term = sampler.sample(rng)
            if check_constraints(term, arity=arity):
                continue
            checked += 1
            program = translate(term, arity=arity)
            inputs = sample_inputs(arity, config, rng)
            digest.update(_pinned_record(term, program, inputs))
            lines = program.source.split("\n")
            for _, kind, line, _, _ in assert_built_ast_is_parsed_ast(program, inputs):
                assert kind == "IndexError"
                if ".pop(" in lines[line - 1]:
                    pop_errors += 1
                else:
                    index_errors += 1
        assert pop_errors and index_errors
        assert digest.hexdigest() == SAMPLED_DRAWS_SHA256[arity, depth]


class TestUntranslatable:
    @pytest.mark.parametrize("text,head", [
        ("(map (if (< (length a1) 2) (length) (length)) (append a1 empty))", "if"),
        ("(map (index 0 (append (length) empty)) (append a1 empty))", "append"),
    ])
    def test_function_typed_argument_outside_map(self, text, head):
        term = parse_sexpr(text)
        typecheck(term)
        with pytest.raises(UntranslatableNode, match=f'^"{head}" with function-typed'):
            translate(term)
