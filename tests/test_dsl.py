import pytest

from mutexec import minipy
from mutexec.dsl import (
    BOOL,
    INT,
    INT_LITERALS,
    PRIM_BY_NAME,
    PRIMITIVES,
    IndexOutOfRange,
    PopFromEmpty,
    TFun,
    TList,
    TypeMismatch,
    check_constraints,
    empty,
    eval_dsl,
    eval_dsl_outcomes,
    fun_type,
    param,
    parse_sexpr,
    to_sexpr,
    typecheck,
)
from mutexec.transpile import translate
from reference import app, compile_violations, eval_dsl_outcome, partial


def sig(name):
    prim = PRIM_BY_NAME[name]
    return fun_type(*prim.params, prim.result)


class TestListDsl:
    def test_exactly_fifteen_primitives(self):
        assert len(PRIMITIVES) == 15
        assert {p.name for p in PRIMITIVES} == {
            "if", "map", "empty", "append", "extend", "init", "tail",
            "length", "index", "==", "<", ">", "&&", "||", "!",
        }

    def test_append_signature(self):
        # append: t0 -> L(t0) -> L(t0)
        t0 = PRIM_BY_NAME["append"].params[0]
        assert sig("append") == fun_type(t0, TList(t0), TList(t0))

    def test_signatures_cover_only_int_bool_list(self):
        def base_types(ty):
            if isinstance(ty, TFun):
                yield from base_types(ty.arg)
                yield from base_types(ty.res)
            elif isinstance(ty, TList):
                yield from base_types(ty.elem)
            else:
                yield ty

        for prim in PRIMITIVES:
            for base in base_types(sig(prim.name)):
                assert base in (INT, BOOL) or base.__class__.__name__ == "TVar"

    def test_literal_pool(self):
        assert INT_LITERALS == (-1, 0, 1, 2, 3, 4, 5)
        assert len(INT_LITERALS) == 7


class TestTypes:
    def test_cached_hash_stays_out_of_pickles_and_copies(self):
        import copy
        import pickle

        ty = TList(TFun(INT, TList(BOOL)))
        assert not hasattr(ty, "__dict__")
        for clone in (pickle.loads(pickle.dumps(ty)), copy.deepcopy(ty), copy.copy(ty)):
            assert clone == ty
        assert repr(ty) == "L(int -> L(bool))"
        # nothing keys a type by value, so types do not hash
        with pytest.raises(TypeError):
            hash(TList(INT))


class TestTypecheck:
    def test_length_of_param(self):
        assert typecheck(app("length", param(1))) == INT

    def test_index_first_arg_must_be_int(self):
        with pytest.raises(TypeMismatch):
            typecheck(app("index", param(1), param(1)))

    def test_map_partial_length_over_nested_lists(self):
        # hand-unification: map: (t0 -> t1) -> L(t0) -> L(t1); length
        # instantiates t0 := L(int), t1 := int, so the result is L(int)
        term = app("map", partial("length"), param(1))
        assert typecheck(term, param_type=TList(TList(INT))) == TList(INT)

    def test_deterministic_and_total(self):
        term = parse_sexpr("(if (> (length a1) 2) a1 (tail a1))")
        assert typecheck(term) == typecheck(term) == TList(INT)


class TestConstraints:
    def test_c1_literal_comparison(self):
        violations = compile_violations(parse_sexpr("(== 0 0)"))
        assert any(v.rule == "c1" for v in violations)

    def test_c1_allows_non_literal_first_argument(self):
        term = parse_sexpr("(== (length a1) 0)")
        assert not compile_violations(term)

    def test_c2_empty_in_restricted_positions(self):
        for text in ("(extend a1 empty)", "(length empty)", "(map (length) empty)"):
            violations = compile_violations(parse_sexpr(text))
            assert any(v.rule == "c2" for v in violations), text

    def test_c3_minus_one_only_under_index(self):
        ok = compile_violations(parse_sexpr("(index -1 a1)"))
        assert not ok
        bad = compile_violations(parse_sexpr("(append -1 a1)"))
        assert any(v.rule == "c3" for v in bad)

    def test_c4_no_statically_empty_list_operations(self):
        for text in ("(init empty)", "(tail empty)", "(index 0 empty)"):
            violations = compile_violations(parse_sexpr(text))
            assert any(v.rule == "c4" for v in violations), text

    def test_s1_identical_comparison_operands(self):
        term = parse_sexpr("(== (length a1) (length a1))")
        assert any(v.rule == "s1" for v in check_constraints(term))

    def test_s2_self_extend(self):
        term = parse_sexpr("(extend a1 a1)")
        assert any(v.rule == "s2" for v in check_constraints(term))

    def test_s3_identical_branches(self):
        term = parse_sexpr("(if (> (length a1) 2) (tail a1) (tail a1))")
        assert any(v.rule == "s3" for v in check_constraints(term))

    def test_s4_all_parameters_used(self):
        term = parse_sexpr("(tail a1)")
        violations = check_constraints(term, arity=2)
        assert any(v.rule == "s4" for v in violations)
        assert not check_constraints(term, arity=1)


class TestEval:
    def test_tail(self):
        assert eval_dsl(parse_sexpr("(tail a1)"), ([4, 1, 3],)) == [1, 3]

    def test_negative_index(self):
        assert eval_dsl(parse_sexpr("(index -1 a1)"), ([2, 5],)) == 5

    def test_strict_both_branch_if(self):
        # expected value computed by the transpiled program (brute-force
        # oracle): pop happens before the branch is selected, so the result
        # on [1, 2] is [2]
        term = parse_sexpr("(if (> (length a1) 2) a1 (tail a1))")
        program = translate(term, arity=1)
        expected = minipy.interpret(program.ast, ([1, 2],))
        assert expected.status == "ok" and expected.output == [2]
        assert eval_dsl(term, ([1, 2],)) == [2]

    def test_expression_evaluated_at_statement_time(self):
        # a1.pop(0) runs before a1.append(len(a1)): len sees the popped list
        term = parse_sexpr("(append (length a1) (tail a1))")
        assert eval_dsl(term, ([4, 1, 3],)) == [1, 3, 2]

    def test_inputs_not_mutated(self):
        args = ([4, 1, 3],)
        eval_dsl(parse_sexpr("(tail a1)"), args)
        assert args[0] == [4, 1, 3]

    @pytest.mark.parametrize("text, args", [
        ("(map (append 1) a1)", ([[1], [2, 3], []],)),
        ("(map (map (!)) a1)", ([[True], [False, True]],)),
        ("(map (tail) a1)", ([[1, 2], [3, 4]],)),
        ("(extend (init a1) a2)", ([1, 2], [3])),
        ("(append (length a1) (tail a2))", ([5], [6, 7])),
    ])
    def test_no_caller_argument_is_mutated(self, text, args):
        """Neither semantics touches the caller's arguments, nested lists
        included: each list object keeps its identity and its contents."""
        term = parse_sexpr(text)
        lists = _lists(args)
        before = [(id(lst), list(lst)) for lst in lists]
        eval_dsl(term, args)
        program = translate(term, arity=len(args))
        minipy.interpret(program.ast, args)
        assert [(id(lst), list(lst)) for lst in _lists(args)] == before

    def test_shared_argument_is_copied_as_before(self):
        """The term evaluator copies each argument on its own and the
        interpreter copies the argument list as a whole, as deepcopy did:
        the same list passed twice is two stores here and one there."""
        term = parse_sexpr("(extend (init a1) a2)")
        shared = [1, 2]
        assert eval_dsl(term, (shared, shared)) == [1, 2, 1]
        result = minipy.interpret(translate(term, arity=2).ast, (shared, shared))
        assert result.output == [1, 1]
        assert shared == [1, 2]

    def test_each_empty_node_is_a_distinct_store(self):
        term = parse_sexpr("(extend (append 1 empty) (append 2 empty))")
        assert eval_dsl(term, ([0, 0, 0],)) == [2, 1]

    def test_self_extend_through_aliasing(self):
        # both map results alias a1, so the final extend doubles it
        term = parse_sexpr("(extend (map (> 2) a1) (map (< 3) a1))")
        assert eval_dsl(term, ([1, 2, 4],)) == [False] * 6

    def test_index_error(self):
        with pytest.raises(IndexOutOfRange):
            eval_dsl(parse_sexpr("(index 5 a1)"), ([1, 2],))

    def test_pop_from_empty(self):
        with pytest.raises(PopFromEmpty):
            eval_dsl(parse_sexpr("(tail (tail (tail a1)))"), ([1, 2],))

    def test_short_circuit_logicals(self):
        # || skips the erroring right operand when the left side is true
        term = parse_sexpr("(|| (< (length a1) 3) (> (index 5 a1) 0))")
        assert eval_dsl(term, ([1, 2],)) is True
        with pytest.raises(IndexOutOfRange):
            eval_dsl(term, ([1, 2, 3],))

    @pytest.mark.parametrize("text", ["(length a3)", "(map (append (length a2)) a1)"])
    def test_parameter_beyond_the_arguments(self, text):
        # in a map, a2 must not read the element either
        term = parse_sexpr(text)
        highest = max(n.value for n in term.walk() if n.is_param)
        with pytest.raises(ValueError, match=f"uses a{highest}, but only 1 argument"):
            eval_dsl(term, ([[1]],))
        with pytest.raises(ValueError, match=f"uses a{highest}, but only 1 argument"):
            list(eval_dsl_outcomes(term, [([[1]],)]))

    def test_outcome_wrapper(self):
        outcome = eval_dsl_outcome(parse_sexpr("(index 5 a1)"), ([1],))
        assert outcome.status == "error"
        assert outcome.error_kind == "IndexError"


class TestSexpr:
    def test_round_trip(self):
        texts = [
            "(tail a1)",
            "(map (length) a1)",
            "(map (index -1) (append a1 empty))",
            "(if (> (length a1) 2) a1 (tail a1))",
            "(map (if (== (index 0 a2) 3) 1) (extend a1 a2))",
            "empty",
            "a2",
            "-1",
        ]
        for text in texts:
            term = parse_sexpr(text)
            assert to_sexpr(term) == text
            assert parse_sexpr(to_sexpr(term)) == term

    def test_rejects_malformed(self):
        # "(tail)" is a legal zero-child partial, not malformed; parameters
        # start at a1
        for bad in ("(tail a1 a2)", "(frobnicate a1)", "(", "a1 a2", "", "(tail a1",
                    "a0", "(append 1 a0)", "(length a01)"):
            with pytest.raises(ValueError):
                parse_sexpr(bad)

    def test_partial_arity(self):
        term = parse_sexpr("(map (if (> (length a1) 1) 0) a1)")
        fn = term.children[0]
        assert fn.partial and fn.head == "if" and len(fn.children) == 2


def _lists(value):
    """Every list inside value, outermost first."""
    found = []
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, list):
            found.append(v)
        if isinstance(v, (list, tuple)):
            stack.extend(v)
    return found
