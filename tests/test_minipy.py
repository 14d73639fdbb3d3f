import ast
import hashlib
import io
import os
import random
import tokenize

import pytest

from conftest import EDGE_CASES, needs_python_tokenize
from reference import parsed_outside_python, random_texts

from mutexec import minipy
from mutexec.minipy import Limits, ParseError, interpret, parse


def run(source, *args, limits=None, fn=None):
    return interpret(parse(source), args, limits, fn)


class TestParse:
    def test_two_statement_function(self):
        module = parse("def f(a1):\n    return len(a1)")
        fn = module.functions()["f"]
        assert fn.params == ["a1"]
        assert len(fn.body) == 1

    def test_import_rejected(self):
        with pytest.raises(ParseError):
            parse("import os\ndef f(a1):\n    return a1")

    def test_table_fragments_parse(self):
        # the mutation-operator vocabulary appears in expression statements
        for fragment in ("a + b", "a < b", "a and b", "while a:\n    continue", "1"):
            parse(fragment)

    def test_rejected_constructs(self):
        bad = [
            "def f(a1):\n    return a1.sort()",
            "def f(a1):\n    return 'x'",
            "def f(a1):\n    pass",
            "def f(a1):\n    return 1.5",
            "def f(a1):\n    return {1: 2}",
            "def f(a1):\n    return a1[0:2]",
            "def f(a1):\n    return g(a1)",
            "def f(a1):\n    return a < b < c",
        ]
        for source in bad:
            with pytest.raises(ParseError):
                parse(source)

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse("def f(a1):\n    return 'nope'")
        assert err.value.line == 2

    @pytest.mark.parametrize("text", [
        "v1 = [1 2]",
        "def f(a1 a2):\n    return a1",
        "a1.append(1 2)",
        "finally = 1",
        "await = 1",
        "for if in range(3):\n    v1 = 1",
        "def f(a1, a1):\n    return a1",
    ], ids=["list_display", "parameters", "method_arguments", "finally", "await",
            "for_target", "repeated_parameter"])
    def test_not_python_rejected_at_its_line(self, text):
        with pytest.raises(SyntaxError):
            compile(text, "<text>", "exec")
        with pytest.raises(ParseError) as err:
            parse("v1 = 0\n" + text)
        assert err.value.line == 2

    def test_trailing_commas(self):
        source = ("def f(a1,):\n    for i in range(len(a1),):\n        a1.append(i,)\n"
                  "    return [a1, 0,]")
        assert run(source, [5, 6]).output == [[5, 6, 0, 1], 0]

    @pytest.mark.parametrize("text", [
        "def f(a1):\n    if a1:\n        break\n    return 1\n",
        "def f(a1):\n    return a1\nbreak\n",
        "return 1\ndef f(a1):\n    break\n",
        "def f(a1):\n    return 1\n    continue\n",
        "for i in range(3):\n    def g():\n        break\n",
        "while a:\n    return 1\n",
        "if False:\n    continue\n",
        "while a:\n    if a:\n        break\n    continue\n",
        "def f(a1):\n    break\nv = (\n",
        "def f(a1):\n    break\nv = 1 +\n",
    ], ids=["break_in_if", "module_break", "module_return_first", "continue_after_return",
            "break_in_a_def_in_a_loop", "return_in_a_module_loop", "continue_in_dead_code",
            "jumps_in_a_module_loop", "unclosed_bracket_later", "parse_error_later"])
    def test_jumps_outside_their_scope_as_compile_reports_them(self, text):
        # the compiler reports the first jump outside its scope, and only
        # for a text that parses
        try:
            compile(text, "<text>", "exec")
            expected = None
        except SyntaxError as err:
            expected = (type(err).__name__, err.lineno)
        try:
            parse(text)
            mine = None
        except ParseError as err:
            mine = (err.kind, err.line)
        assert mine == expected

    def test_accepts_only_python(self, lexer_corpus):
        assert parsed_outside_python(lexer_corpus + random_texts(1, 20000)) == []


class TestInterpret:
    def test_tail_program(self):
        result = run("def f(a1):\n    a1.pop(0)\n    return a1", [4, 1, 3])
        assert result.status == "ok"
        assert result.output == [1, 3]
        assert result.covered_lines == {2, 3}

    def test_branch_coverage_exclusive(self):
        source = (
            "def f(a1):\n"
            "    if len(a1) > 2:\n"
            "        v1 = 1\n"
            "    else:\n"
            "        v1 = 0\n"
            "    return v1"
        )
        taken = run(source, [1, 2, 3])
        skipped = run(source, [1])
        assert 3 in taken.covered_lines and 5 not in taken.covered_lines
        assert 5 in skipped.covered_lines and 3 not in skipped.covered_lines
        assert 6 in taken.covered_lines  # return line always covered when ok

    def test_step_limit(self):
        source = "def f(a1):\n    while True:\n        v1 = 1\n    return v1"
        result = run(source, [1], limits=Limits(max_steps=1000))
        assert result.status == "error"
        assert result.error_kind == "StepLimitExceeded"

    def test_negative_index_and_pop_variants(self):
        assert run("def f(a1):\n    return a1[-1]", [2, 5]).output == 5
        assert run("def f(a1):\n    return a1.pop()", [1, 2]).output == 2
        assert run("def f(a1):\n    return a1.pop(0)", [1, 2]).output == 1
        assert run("def f(a1):\n    return a1.pop(-2)", [1, 2, 3]).output == 2

    def test_runtime_error_kinds(self):
        cases = [
            ("def f(a1):\n    return a1[5]", [1], "IndexError"),
            ("def f(a1):\n    a1.pop(0)\n    a1.pop(0)\n    return a1", [1], "IndexError"),
            ("def f(a1):\n    return a1 + 1", [1], "TypeError"),
            ("def f(a1):\n    return v9", [1], "NameError"),
        ]
        for source, arg, kind in cases:
            result = run(source, arg)
            assert result.status == "error" and result.error_kind == kind, source

    def test_zero_division(self):
        result = run("def f(a1):\n    return len(a1) // 0", [1])
        assert result.error_kind == "ZeroDivisionError"
        result = run("def f(a1):\n    return len(a1) % 0", [1])
        assert result.error_kind == "ZeroDivisionError"

    def test_overflow_reported(self):
        source = (
            "def f(a1):\n"
            "    v1 = 2\n"
            "    while v1 > 0:\n"
            "        v1 = v1 * v1 * v1 * v1 * v1 * v1 * v1 * v1\n"
            "    return v1"
        )
        result = run(source, [1])
        assert result.status == "error"
        assert result.error_kind == "OverflowError"

    def test_floor_division_matches_python_on_negatives(self):
        source = "def f(a1):\n    return [a1[0] // a1[1], a1[0] % a1[1]]"
        assert run(source, [-7, 2]).output == [-7 // 2, -7 % 2]
        assert run(source, [7, -2]).output == [7 // -2, 7 % -2]

    def test_for_range_break_continue(self):
        source = (
            "def f(a1):\n"
            "    v1 = 0\n"
            "    for i in range(len(a1)):\n"
            "        if a1[i] == 3:\n"
            "            continue\n"
            "        if a1[i] == 5:\n"
            "            break\n"
            "        v1 = v1 + a1[i]\n"
            "    return v1"
        )
        assert run(source, [1, 3, 2, 5, 9]).output == 3

    def test_while_loop(self):
        source = (
            "def f(a1):\n"
            "    v1 = 0\n"
            "    while v1 < len(a1):\n"
            "        v1 = v1 + 1\n"
            "    return v1"
        )
        assert run(source, [7, 7, 7]).output == 3

    def test_tuple_assignment(self):
        source = "def f(a1):\n    v1, v2 = [], []\n    v1.append(len(a1))\n    return v1"
        assert run(source, [1, 2]).output == [2]

    def test_no_return_gives_none(self):
        result = run("def f(a1):\n    a1.pop(0)", [1, 2])
        assert result.status == "ok" and result.output is None

    def test_determinism(self):
        source = "def f(a1):\n    a1.append(len(a1))\n    return a1"
        first = run(source, [1, 2])
        second = run(source, [1, 2])
        assert (first.status, first.output, first.covered_lines, first.steps) == (
            second.status, second.output, second.covered_lines, second.steps
        )

    def test_inputs_deep_copied(self):
        arg = [1, 2, 3]
        run("def f(a1):\n    a1.pop(0)\n    return a1", arg)
        assert arg == [1, 2, 3]

    def test_list_limit(self):
        source = (
            "def f(a1):\n"
            "    while True:\n"
            "        a1.extend(a1)\n"
            "    return a1"
        )
        result = run(source, [1], limits=Limits(max_list_len=1000))
        assert result.error_kind == "ListLimitExceeded"

    def test_wrong_arity_is_error(self):
        assert run("def f(a1):\n    return a1", [1], [2]).error_kind == "TypeError"

    def test_function_lookup_by_name(self):
        source = "def g(a1):\n    return 1\ndef f(a1):\n    return 2"
        assert run(source, [0], fn="f").output == 2
        assert run(source, [0], fn="g").output == 1
        assert run(source, [0], fn="h").error_kind == "NameError"

    def test_every_node_class_has_its_own_semantics(self):
        # the class is the dispatch: a node class without its own eval or
        # run would fall back to no semantics or to its base's
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        expressions = list(subclasses(minipy.Expr))
        statements = list(subclasses(minipy.Stmt))
        assert minipy.MethodCall in expressions and minipy.ForRange in statements
        assert [c.__name__ for c in expressions if "eval" not in vars(c)] == []
        assert [c.__name__ for c in statements if "run" not in vars(c)] == []


# sha256 of the lexer corpus's AST reprs ("-" for a source that does not
# parse), recorded with the tokenize-based parser that the scanner replaced,
# and again, by the scanner that matched it, when the differential fixture
# gained its loop shapes.  Recorded once more when the scanner began to
# refuse the two edge cases whose indentation is a TabError in CPython.
CORPUS_AST_SHA256 = "ce6117551d4913c8da146f51660959588048d6e0671f545bbfc4b4610d455069"


def tokenize_stream(source):
    """tokenize's tokens as (kind name, string, line), without COMMENT, NL
    and ENCODING."""
    skip = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
    return [
        (tokenize.tok_name[t.type], t.string, t.start[0])
        for t in tokenize.generate_tokens(io.StringIO(source).readline)
        if t.type not in skip
    ]


def scanner_stream(source):
    return [(minipy.KIND_NAMES[k], s, line) for k, s, line, _ in minipy._scan(source)]


def tokenize_parse(source):
    """The parser run on tokenize's tokens instead of the scanner's (the
    parser reads no start offset)."""
    tokens = [
        (minipy.KIND_NAMES.index(kind), string, line, 0)
        for kind, string, line in tokenize_stream(source)
    ]
    return minipy._Parser(tokens).parse_module()


def outcomes(sources):
    """The repr of each source's AST, or the line of its ParseError."""
    out = []
    for source in sources:
        try:
            out.append(repr(parse(source)))
        except ParseError as err:
            out.append(err.line)
    return out


class TestLexer:
    @pytest.mark.parametrize("source,line", EDGE_CASES)
    def test_edge_case(self, source, line):
        if line is None:
            parse(source)
        else:
            with pytest.raises(ParseError) as err:
                parse(source)
            assert err.value.line == line

    @needs_python_tokenize
    def test_token_stream_matches_tokenize(self, lexer_corpus):
        parsed = 0
        for source, outcome in zip(lexer_corpus, outcomes(lexer_corpus)):
            if isinstance(outcome, str):
                assert scanner_stream(source) == tokenize_stream(source), source
                parsed += 1
        assert parsed > 200

    @needs_python_tokenize
    def test_parse_errors_at_tokenize_lines(self, lexer_corpus):
        failed = 0
        for source, outcome in zip(lexer_corpus, outcomes(lexer_corpus)):
            if isinstance(outcome, str):
                continue
            failed += 1
            try:
                tokenize_parse(source)
            except ParseError as err:
                assert outcome == err.line, source
            except IndentationError as err:
                assert outcome == err.lineno, source
            except tokenize.TokenError:
                # tokenize gives no line here; the scanner names the line of
                # the open bracket, backslash or string (see EDGE_CASES)
                assert outcome > 0, source
            else:
                # tokenize lets tabs and spaces mix where CPython's
                # tokenizer raises a TabError
                with pytest.raises(TabError) as err:
                    compile(source, "<text>", "exec")
                assert outcome == err.value.lineno, source
        assert failed >= sum(line is not None for _, line in EDGE_CASES)

    def test_ast_digest_pinned(self, lexer_corpus):
        text = "\n".join(o if isinstance(o, str) else "-" for o in outcomes(lexer_corpus))
        assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_AST_SHA256

    @needs_python_tokenize
    def test_random_texts_match_tokenize(self):
        pieces = [
            "def", "f", "a1", "é", "return", "(", ")", "[", "]", ":", ",",
            "=", "==", "+", "-", "**", "...", " ", "    ", "\t", "\x0c", "\n",
            "\n    ", "\n  ", "\n\t", "\r\n", "\r", "\\\n", "\\", "#c",
            "'", '"', "'''", "rb", "1", "1_0", "0x1", "1.5", ".5", "01",
            "$", "?", "\x0b",
        ]
        rng = random.Random(7)
        for _ in range(3000):
            source = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 25)))
            try:
                expected = tokenize_stream(source)
            except (tokenize.TokenError, IndentationError) as err:
                expected = err
            try:
                stream = scanner_stream(source)
            except ParseError as mine:
                # tokenize lets tabs and spaces mix where CPython's tokenizer
                # raises a TabError (test_indentation_matches_cpython)
                if mine.kind != "TabError":
                    assert isinstance(expected, Exception), source
                    if isinstance(expected, IndentationError):
                        assert mine.line == expected.lineno, source
                continue
            assert not isinstance(expected, Exception), source
            # tokenize also yields the blanks before a bad character
            expected = [t for t in expected
                        if not (t[0] == "ERRORTOKEN" and t[1] in " \t\x0c")]
            assert stream == expected, source

    def test_indentation_matches_cpython(self):
        # every fault of these texts is one of indentation or a ``return``
        # at column 0, outside the ``def``; ``compile``, which the external
        # child runs, reports the first of them
        rng = random.Random(5)
        faults = set()
        for _ in range(3000):
            lines = ["def f(a1):"]
            for _ in range(rng.randint(1, 6)):
                indent = "".join(rng.choice([" ", "    ", "\t", "\x0c"])
                                 for _ in range(rng.randint(0, 3)))
                lines.append(indent + rng.choice(["if a1:", "v1 = a1"]))
            lines.append(rng.choice(["", "    ", "\t"]) + "return a1")
            source = "\n".join(lines) + "\n"
            try:
                compile(source, "<text>", "exec")
                expected = None
            except SyntaxError as err:
                expected = (type(err).__name__, err.lineno)
            try:
                parse(source)
                mine = None
            except ParseError as err:
                mine = (err.kind, err.line)
            assert mine == expected, source
            faults.add(mine and mine[0])
        assert faults == {None, "IndentationError", "TabError", "SyntaxError"}

    def test_unexpected_character_named(self):
        with pytest.raises(ParseError) as err:
            parse("def f(a1):\n    x = $\n    return x\n")
        assert (err.value.line, err.value.message) == (2, "unexpected character '$'")
        with pytest.raises(ParseError) as err:
            parse("def f(a1):\n    x = a1 $\n    return x\n")
        assert (err.value.line, err.value.message) == (2, "expected 'NEWLINE', got '$'")

    def test_unterminated_quote_named(self):
        with pytest.raises(ParseError) as err:
            parse("def f(a1):\n    x = 'abc\n    return x\n")
        assert (err.value.line, err.value.message) == (2, "unexpected character \"'\"")

    @pytest.mark.parametrize("before", ["", "v1 = $\n", "v1 = 1 +\n", "v1 = 1)\n"],
                             ids=["alone", "after_a_bad_character", "after_a_parse_error",
                                  "after_a_stray_closer"])
    def test_nesting_as_cpython_limits_it(self, before):
        # 200 open brackets parse and the 201st fails at its line, before
        # any parser error, as CPython's tokenizer reports it; a stray
        # closer before them fails first
        for depth in (200, 201, 400):
            text = before + "v2 = (\n" + "[" * (depth - 1) + "\n1" + "]" * (depth - 1) + ")\n"
            try:
                compile(text, "<text>", "exec")
                expected = None
            except SyntaxError as err:
                expected = err.lineno
            try:
                parse(text)
                mine = None
            except ParseError as err:
                mine = err.line
                message = err.message
            assert mine == expected
        if ")" not in before:
            assert (mine, message) == (before.count("\n") + 2, "too many nested parentheses")

    def test_unclosed_bracket_line(self):
        with pytest.raises(ParseError) as err:
            parse("def f(a1):\n    x = [1,\n    return x\n")
        assert (err.value.line, err.value.message) == (2, "'[' was never closed")

    def test_number_spans(self):
        assert run("def f(a1):\n    return 1_000", 0).output == 1000
        for literal in ("1.5", "0x10", "1e3"):
            with pytest.raises(ParseError) as err:
                parse(f"def f(a1):\n    return {literal}")
            assert err.value.message == f"only integer literals are supported: {literal}"

    def test_string_literal_line(self):
        with pytest.raises(ParseError) as err:
            parse("def f(a1):\n    v1 = 1\n    v2 = '''a\nb'''\n    return v1")
        assert err.value.line == 3
        assert err.value.message == "string literals are outside the mini-language"

    def test_module_does_not_import_tokenize(self):
        # the scanner is the package's one lexer: no module of it, minipy
        # and mutate included, imports the standard library's
        package = os.path.dirname(minipy.__file__)
        modules = sorted(f for f in os.listdir(package) if f.endswith(".py"))
        assert {"minipy.py", "mutate.py"} <= set(modules)
        for name in modules:
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            imported = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported |= {alias.name for alias in node.names}
                elif isinstance(node, ast.ImportFrom):
                    imported |= {node.module or ""} | {alias.name for alias in node.names}
            assert "tokenize" not in imported, name
