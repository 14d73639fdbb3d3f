import random

from conftest import read_fixture

from mutexec import minipy
from mutexec.dsl import eval_dsl_outcome, parse_sexpr
from mutexec.grammar import (
    SamplerConfig,
    Sampler,
    compile_cfg,
    sample_valid_program,
)
from mutexec.transpile import translate

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
        sampler = Sampler(cfg)
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
        from mutexec.dsl import check_constraints, typecheck

        inputs = [([1, 2, 3], [4, 0]), ([2], [5, 5, 5]), ([0, 1, 2, 3, 4], [1])]
        for text in cases:
            term = parse_sexpr(text)
            typecheck(term)
            assert not check_constraints(term, "compile"), text
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
        sampler = Sampler(cfg)
        config = SamplerConfig()
        from mutexec.grammar import sample_inputs

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
            sampler = Sampler(cfg)
            for _ in range(500):
                term = sampler.sample(rng)
                samples.append(translate(term, arity=arity).loc)
        for value in samples:
            for lo, hi in ((4, 8), (8, 12), (12, 16), (16, 20), (20, 24)):
                if lo <= value < hi:
                    seen.add((lo, hi))
        assert len(seen) == 5, f"bins covered: {sorted(seen)}"
