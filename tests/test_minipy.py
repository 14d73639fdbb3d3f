import ast
import hashlib
import io
import os
import re
import tokenize

import pytest

from conftest import EDGE_CASES, needs_python_tokenize
from reference import (
    compiles, compiles_as_tokenized, indentation_texts, lexer_texts, parsed_outside_python,
    random_texts,
)

from mutexec import minipy
from mutexec.minipy import MAX_DEPTH, Limits, ParseError, interpret, parse


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
        for fragment in ("a + b", "a < b", "a and b", "1"):
            parse(f"def f(a, b):\n    {fragment}\n")

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
        "    v1 = [1 2]",
        "def f(a1 a2):\n    return a1",
        "    a1.append(1 2)",
        "    finally = 1",
        "    await = 1",
        "    for if in range(3):\n        v1 = 1",
        "def f(a1, a1):\n    return a1",
    ], ids=["list_display", "parameters", "method_arguments", "finally", "await",
            "for_target", "repeated_parameter"])
    def test_not_python_rejected_at_its_line(self, text):
        source = "def g(a1):\n    v1 = 0\n" + text
        with pytest.raises(SyntaxError):
            compile(source, "<text>", "exec")
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.line == 3

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
        # compile, which the host child runs, reports the first jump outside
        # its scope in a text that parses; loop jumps and statements outside
        # a def are outside the language, so parse refuses every such text,
        # and no later than compile stops on it
        try:
            compile(text, "<text>", "exec")
            expected = None
        except SyntaxError as err:
            expected = err.lineno
        with pytest.raises(ParseError) as err:
            parse(text)
        assert expected is None or err.value.line <= expected

    @pytest.mark.parametrize("text, line", [
        ("N = 1\ndef f(a1):\n    return a1\n", 1),
        ("def f(a1):\n    return a1\nf(1)\n", 3),
        ("def f(a1):\n    def g(a2):\n        return a2\n    return a1\n", 2),
        ("def f(a1):\n    v1 = [a1,\n          a1]\n    return v1\n", 2),
        ("def f(a1):\n    v1 = a1 + \\\n        1\n    return v1\n", 2),
        ("def f(a1):\n    if (a1 >\n            0):\n        return 1\n    return 0\n", 2),
        ("def f(a1):\n    while a1:\n        a1 = 0\n    return a1\n", 2),
        ("def f(a1):\n    for i in range(3):\n        continue\n    return a1\n", 3),
    ], ids=["module_level_statement", "module_level_call", "def_in_a_body",
            "list_display_on_two_lines", "backslash_continuation", "header_on_two_lines",
            "while", "continue"])
    def test_outside_the_language_at_its_line(self, text, line):
        compile(text, "<text>", "exec")
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line

    @pytest.mark.parametrize("nest", [
        lambda k: "def f(a1):\n    return " + "not " * (k - 3) + "a1\n",
        lambda k: "def f(a1):\n    return a1" + " + a1" * (k - 3) + "\n",
        lambda k: "def f(a1):\n    return " + "(" * (k - 3) + "a1" + ")" * (k - 3) + "\n",
        lambda k: "def f(a1):\n    return " + "[" * (k - 3) + "a1" + "]" * (k - 3) + "\n",
        lambda k: "def f(a1):\n    return a1" + "[0]" * (k - 3) + "\n",
        lambda k: "def f(a1):\n" + "".join("    " * d + "if a1:\n" for d in range(1, k - 2))
        + "    " * (k - 2) + "return a1\n",
    ], ids=["prefix_operators", "left_operands", "parentheses", "list_displays",
            "subscripts", "blocks"])
    def test_depth_bound(self, nest):
        # nodes on a path from the def: the def, its return, and k - 2 more;
        # the interpreter runs the deepest tree within the stack
        result = interpret(parse(nest(MAX_DEPTH)), ([[1]],))
        assert isinstance(result, minipy.ExecResult)
        with pytest.raises(ParseError) as err:
            parse(nest(MAX_DEPTH + 1))
        assert err.value.message == f"nested more than {MAX_DEPTH} levels deep"

    def test_accepts_only_python(self, lexer_corpus):
        assert parsed_outside_python(lexer_corpus + random_texts(1, 20000)) == []

    @pytest.mark.parametrize("text, line", [
        ("def f(a1):\n\tif a1:\n\t\treturn 1\n\treturn 2\n", 2),
        ("def f(a1):\n    return a1 +\t1\n", 2),
        ("def f(a1):\n    return a1  # a\tb\n", 2),
        ("\x0cdef f(a1):\n    return a1\n", 1),
        ("def f(a1):\n    v1 = a1\n\x0c    return v1\n", 3),
        ("def f(a1):\n    return a1\n\rdef f(a1):\n    return 2\n", 3),
        ("def f(a1):\r    return a1\r", 1),
    ], ids=["tab_indentation", "tab_between_tokens", "tab_in_a_comment", "form_feed_first",
            "form_feed_in_indentation", "lone_cr", "lone_cr_line_ends"])
    def test_no_tab_form_feed_or_lone_cr(self, text, line):
        # CPython compiles each of these; the language holds none of the
        # three characters, and a CR outside a CRLF is a line break to
        # CPython but none to the scanner
        compile(text, "<text>", "exec")
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.line == line
        assert err.value.message.endswith(" is outside the mini-language")
        crlf = text.replace("\t", "    ").replace("\x0c", "").replace("\r", "\r\n")
        parse(crlf)


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
        source = "def f(a1):\n    for i in range(1000000):\n        v1 = 1\n    return v1"
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
            "    for i in range(10):\n"
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
        # a loop runs its body to the end: break and continue are outside
        # the language
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
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.line == 5
        lines = source.split("\n")
        assert run("\n".join(lines[:3] + lines[7:]), [1, 3, 2, 5, 9]).output == 20

    def test_while_loop(self):
        # outside the language: the host child runs while loops
        source = (
            "def f(a1):\n"
            "    v1 = 0\n"
            "    while v1 < len(a1):\n"
            "        v1 = v1 + 1\n"
            "    return v1"
        )
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.line == 3

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
            "    for i in range(100):\n"
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
# refuse the two edge cases whose indentation is a TabError in CPython, and
# again when the language lost its loop jumps and statements on several
# lines: the eight fixture programs with ``while``, ``break`` or
# ``continue`` and the four edge cases that span lines became errors.
# Recorded again when parse began to refuse tabs and form feeds and the
# scanner stopped naming the line of an unclosed bracket.  Five edge cases
# moved: the two with a tab or form feed that CPython compiles, the one
# that is a TabError in CPython, and the two unclosed brackets.
CORPUS_AST_SHA256 = "52032eb07994c19038248b908e9e1fc8290a607c3df0e8c63bc06429cca2c695"


# what parse refuses in any text: a tab, a form feed, a CR outside a CRLF
OUTSIDE = re.compile(r"[\t\f]|\r(?!\n)")


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
    def test_edge_cases_scan_as_tokenize(self):
        # the scanner reads the text that CPython compiles, in or outside
        # the language: mutate finds its sites on the scanner's tokens
        scanned = 0
        for source, _ in EDGE_CASES:
            if compiles_as_tokenized(source):
                assert scanner_stream(source) == tokenize_stream(source), source
                scanned += 1
        assert scanned > 15

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
        # on text that compiles and that the language refuses, the parser
        # stops where it stops on tokenize's tokens, unless a tab, form
        # feed or lone CR stopped parse first
        failed = 0
        for source, outcome in zip(lexer_corpus, outcomes(lexer_corpus)):
            if isinstance(outcome, str) or not compiles(source) or OUTSIDE.search(source):
                continue
            failed += 1
            with pytest.raises(ParseError) as err:
                tokenize_parse(source)
            assert outcome == err.value.line, source
        assert failed > 10

    def test_ast_digest_pinned(self, lexer_corpus):
        text = "\n".join(o if isinstance(o, str) else "-" for o in outcomes(lexer_corpus))
        assert hashlib.sha256(text.encode()).hexdigest() == CORPUS_AST_SHA256

    @needs_python_tokenize
    def test_random_texts_match_tokenize(self, lexer_corpus):
        # on every text that compiles and holds no lone CR, the scanner's
        # stream is tokenize's; parse accepts none of the texts that do not
        # compile
        sources = lexer_corpus + lexer_texts(7, 20000) + indentation_texts(5, 3000)
        assert parsed_outside_python(sources) == []
        compiled = 0
        for source in sources:
            if compiles_as_tokenized(source):
                assert scanner_stream(source) == tokenize_stream(source), source
                compiled += 1
        assert compiled > 900

    def test_indentation_matches_cpython(self):
        # where CPython stops on an unindent to no outer level, the scanner
        # stops at the same line; parse accepts none of the texts that hold
        # a tab or form feed
        sources = indentation_texts(5, 3000)
        scanned = 0
        for source in sources:
            try:
                compile(source, "<text>", "exec")
                continue
            except SyntaxError as err:
                fault = err
            if fault.msg.startswith("unindent"):
                with pytest.raises(ParseError) as err:
                    minipy._scan(source)
                assert err.value.line == fault.lineno, source
                scanned += 1
        parsed = [s for s, o in zip(sources, outcomes(sources)) if isinstance(o, str)]
        assert not [s for s in parsed if OUTSIDE.search(s)]
        assert scanned > 100 and len(parsed) > 5

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
        assert (err.value.line, err.value.message) == (2, "unterminated string literal")

    @pytest.mark.parametrize("before", ["", "v1 = $\n", "v1 = 1 +\n", "v1 = 1)\n"],
                             ids=["alone", "after_a_bad_character", "after_a_parse_error",
                                  "after_a_stray_closer"])
    def test_nesting_as_cpython_limits_it(self, before):
        # CPython refuses a 201st open bracket; parse refuses a tree deeper
        # than MAX_DEPTH long before, so the scanner reads brackets to any
        # depth, and as tokenize does where CPython compiles them
        for depth in (200, 201, 400):
            text = (before + "def f(a1):\n    v2 = (\n" + "[" * (depth - 1) + "\n1"
                    + "]" * (depth - 1) + ")\n")
            assert compiles(text) == (depth == 200 and before == "")
            minipy._scan(text)
            with pytest.raises(ParseError) as err:
                parse(text)
            if before == "":
                assert err.value.message == f"nested more than {MAX_DEPTH} levels deep"

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
