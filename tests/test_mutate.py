import ast
import hashlib
import io
import json
import random
import tokenize
import warnings

import pytest

from conftest import needs_python_tokenize

from mutexec import mutate
from mutexec.executors import BuiltinExecutor
from mutexec.minipy import interpret, parse
from mutexec.mutate import (
    Survivor,
    enumerate_source_mutants,
    jaccard,
    mutate_dataset,
    mutate_problem,
    mutation_sites,
    select_mutant,
)
from mutexec.problems import Problem
from mutexec.values import values_equal


def mutant_sources(source):
    return {mutated for mutated, _ in enumerate_source_mutants(source)}


def make_problem(source, input_text, output_text, pid="p0", fn="f"):
    return Problem(
        id=pid, dataset="dsl-list", source=source, function_name=fn,
        input=input_text, output=output_text,
        loc=len(source.splitlines()), executor="builtin",
    )


class TestEnumerate:
    def test_arithmetic_example(self):
        source = "def f(a, b):\n    return a + b"
        assert "def f(a, b):\n    return a - b" in mutant_sources(source)
        # full substitution family: each other member of {+, -, *, //, %}
        arith = [s for _, s in enumerate_source_mutants(source)
                 if s.kind == "arithmetic"]
        assert sorted(s.replacement_token for s in arith) == ["%", "*", "-", "//"]

    def test_relational_example(self):
        source = "def f(a, b):\n    return a < b"
        assert "def f(a, b):\n    return a <= b" in mutant_sources(source)
        rel = [s for _, s in enumerate_source_mutants(source)
               if s.kind == "relational"]
        assert len(rel) == 5

    def test_logical_example(self):
        source = "def f(a, b):\n    return a and b"
        assert "def f(a, b):\n    return a or b" in mutant_sources(source)

    def test_keyword_example(self):
        source = (
            "def f(a1):\n"
            "    v1 = 0\n"
            "    for i in range(len(a1)):\n"
            "        if a1[i] == 0:\n"
            "            continue\n"
            "        v1 = v1 + a1[i]\n"
            "    return v1"
        )
        expected = source.replace("continue", "break")
        assert expected in mutant_sources(source)

    def test_literal_example(self):
        source = "def f(a1):\n    return a1[1]"
        sources = mutant_sources(source)
        assert "def f(a1):\n    return a1[0]" in sources
        assert "def f(a1):\n    return a1[2]" in sources

    def test_negative_literal_single_span(self):
        source = "def f(a1):\n    return a1[-1]"
        sources = mutant_sources(source)
        assert "def f(a1):\n    return a1[-2]" in sources
        assert "def f(a1):\n    return a1[0]" in sources
        # the unary minus itself is not an operator site
        assert not any(s.kind == "arithmetic"
                       for _, s in enumerate_source_mutants(source))

    def test_binary_minus_vs_negative_literal(self):
        source = "def f(a, b):\n    return a - 1"
        sites = [s for _, s in enumerate_source_mutants(source)]
        kinds = sorted(s.kind for s in sites)
        assert kinds.count("arithmetic") == 4  # '-' is binary here
        assert kinds.count("literal") == 2

    def test_no_sites(self):
        assert enumerate_source_mutants("def f(lst):\n    return lst") == []

    def test_exactly_one_token_span_changes(self):
        source = (
            "def f(a1):\n"
            "    v1 = []\n"
            "    for i in range(len(a1)):\n"
            "        if a1[i] > 2 and a1[i] < 5:\n"
            "            v1.append(a1[i] + 1)\n"
            "    return v1"
        )
        original_lines = source.splitlines()
        for mutated, site in enumerate_source_mutants(source):
            lines = mutated.splitlines()
            assert len(lines) == len(original_lines)
            diff = [i for i, (a, b) in enumerate(zip(original_lines, lines)) if a != b]
            assert diff == [site.line - 1]
            assert source[site.start:site.end] == site.original_token
            assert mutated[:site.start] == source[:site.start]
            assert mutated[site.start + len(site.replacement_token):] == source[site.end:]

    @pytest.mark.parametrize("source", [
        "def f(a1):\n\x0c    return a1 + 1\n",
        "def f(a1):\r\n    v1 = a1[0] + 1\r\n    return v1 < 2\r\n",
        "def f(a1):\n    return len(a1) > 2\n",
    ], ids=["form_feed", "crlf", "final_newline"])
    def test_mutant_differs_only_at_its_site(self, source):
        # every other character, line ends and a final newline included, is
        # kept; lines are numbered at "\n"
        mutants = enumerate_source_mutants(source)
        assert mutants
        for mutated, site in mutants:
            assert source[site.start:site.end] == site.original_token
            assert site.line == source.count("\n", 0, site.start) + 1
            assert mutated == source[:site.start] + site.replacement_token + source[site.end:]

    def test_relational_if_site_yields_five_mutants(self):
        source = "def f(x):\n    if x < 0:\n        return 1\n    return 0"
        rel = [s for _, s in enumerate_source_mutants(source) if s.kind == "relational"]
        assert len(rel) == 5
        assert {s.replacement_token for s in rel} == {"<=", ">", ">=", "==", "!="}

    def test_mutants_of_minipy_programs_reparse(self):
        source = (
            "def f(a1):\n"
            "    a1.pop(0)\n"
            "    if len(a1) > 2 and len(a1) < 9:\n"
            "        v1 = a1[-1]\n"
            "    else:\n"
            "        v1 = a1[0] + 1\n"
            "    return v1"
        )
        parse(source)
        mutants = enumerate_source_mutants(source)
        assert mutants
        for mutated, site in mutants:
            assert parse(mutated).functions(), site

    def test_fstring_braces_are_not_sites(self):
        # an f-string is one string token on every Python version, although
        # tokenize splits it from 3.12 on
        source = 'def f(a):\n    return f"{a + 1}{a < 2 and -3}" + F\'{a}\'\n'
        sites = mutation_sites(source)
        assert {(s.kind, s.original_token) for s in sites} == {("arithmetic", "+")}
        assert {s.start for s in sites} == {source.index('" + F') + 2}

    def test_strings_and_comments_are_not_sites(self):
        source = "def f(a):\n    return a  # 1 + 2 and 3 < 4\n"
        assert enumerate_source_mutants(source) == []
        source2 = 'def f(a):\n    return "1 + 2"\n'
        assert enumerate_source_mutants(source2) == []


def survivors_of(problem, candidates):
    return mutate_problem(problem, BuiltinExecutor(), random.Random(0), candidates).survivors


class TestFilter:
    def test_symmetric_mutant_excluded(self):
        # a + b == a - b when b == 0
        problem = make_problem("def f(a, b):\n    return a + b", "2, 0", "2")
        candidates = [("def f(a, b):\n    return a - b", None)]
        assert survivors_of(problem, candidates) == []

    def test_erroring_mutant_excluded(self):
        problem = make_problem("def f(a1):\n    return a1[1]", "[1, 2]", "2")
        mutants = enumerate_source_mutants(problem.source)
        survivors = survivors_of(problem, mutants)
        # a1[2] errors on a two-element list, a1[0] survives
        assert {s.source for s in survivors} == {"def f(a1):\n    return a1[0]"}

    def test_survivors_match_exhaustive_execution(self):
        source = (
            "def f(a1):\n"
            "    v1 = []\n"
            "    for i in range(len(a1)):\n"
            "        if a1[i] > 2:\n"
            "            v1.append(a1[i] + 1)\n"
            "    return v1"
        )
        args = ([1, 3, 5],)
        base = interpret(parse(source), args)
        assert base.status == "ok"
        problem = make_problem(source, "[1, 3, 5]", str(base.output))
        survivors = survivors_of(problem, enumerate_source_mutants(source))
        # independent brute force over every candidate
        expected = set()
        for mutated, site in enumerate_source_mutants(source):
            result = interpret(parse(mutated), args)
            if result.status == "ok" and not values_equal(result.output, base.output):
                expected.add(mutated)
        assert {s.source for s in survivors} == expected
        assert survivors  # fixture chosen to have survivors


# sha256 of every mutant source and its site record over the seed-11 small
# corpus, recorded with the tokenize-based site finder the scanner replaced.
SMALL_CORPUS_MUTANTS_SHA256 = (
    "d8e3ad25e0f15681c575cc97ac8759af8d72c29b572f5dec5ff7053f42014cd8"
)


def tokenize_sites(source):
    """The sites as found on tokenize's stream before the scanner replaced
    it, as (kind, line, col, end_col, original, replacement) tuples."""
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    if "\t" in source:  # tokenize lets tabs and spaces mix where CPython does not
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SyntaxWarning)
            try:
                ast.parse(source)
            except TabError:
                return []
            except SyntaxError:
                pass
    ops = {op: "arithmetic" for op in ("+", "-", "*", "//", "%")}
    ops.update({op: "relational" for op in ("<", "<=", ">", ">=", "==", "!=")})
    others = {"arithmetic": ("+", "-", "*", "//", "%"),
              "relational": ("<", "<=", ">", ">=", "==", "!=")}
    sites = []
    prev_significant = None
    pending_minus = None

    def add(kind, line, col, end_col, original, replacements):
        sites.extend((kind, line, col, end_col, original, r) for r in replacements)

    def int_value(text):
        try:
            return int(text, 0)
        except ValueError:
            return None

    for tok in tokens:
        if tok.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER):
            continue
        if pending_minus is not None:
            start, minus_row = pending_minus
            pending_minus = None
            if tok.type == tokenize.NUMBER and tok.start[0] == minus_row:
                value = int_value(tok.string)
                if value is not None:
                    add("literal", minus_row, start, tok.end[1], f"-{tok.string}",
                        [str(-value - 1), str(-value + 1)])
                    prev_significant = tok
                    continue
        if tok.type == tokenize.OP and tok.string in ops:
            binary = prev_significant is not None and (
                prev_significant.type in (tokenize.NUMBER, tokenize.STRING)
                or (prev_significant.type == tokenize.NAME
                    and prev_significant.string not in
                    ("and", "or", "not", "in", "return", "if", "elif", "while",
                     "assert", "else", "lambda", "yield"))
                or (prev_significant.type == tokenize.OP
                    and prev_significant.string in (")", "]", "}"))
            )
            kind = ops[tok.string]
            if binary:
                add(kind, tok.start[0], tok.start[1], tok.end[1], tok.string,
                    [op for op in others[kind] if op != tok.string])
            elif tok.string == "-":
                pending_minus = (tok.start[1], tok.start[0])
        elif tok.type == tokenize.NAME and tok.string in ("and", "or"):
            add("logical", tok.start[0], tok.start[1], tok.end[1], tok.string,
                ["or" if tok.string == "and" else "and"])
        elif tok.type == tokenize.NAME and tok.string in ("continue", "break"):
            add("keyword", tok.start[0], tok.start[1], tok.end[1], tok.string,
                ["break" if tok.string == "continue" else "continue"])
        elif tok.type == tokenize.NUMBER:
            value = int_value(tok.string)
            if value is not None:
                add("literal", tok.start[0], tok.start[1], tok.end[1], tok.string,
                    [str(value - 1), str(value + 1)])
        prev_significant = tok
    return sites


def tokenize_mutant(source, site):
    """The mutant of a ``tokenize_sites`` site, spliced by line and column
    on lines split at "\n", as tokenize numbers them."""
    _, line_no, col, end_col, _, replacement = site
    lines = source.split("\n")
    line = lines[line_no - 1]
    lines[line_no - 1] = line[:col] + replacement + line[end_col:]
    return "\n".join(lines)


def scanner_sites(source):
    """``enumerate_source_mutants`` in the reference's terms: each site with
    its column on its line, and its mutant."""
    out = []
    for mutated, site in enumerate_source_mutants(source):
        line_start = source.rfind("\n", 0, site.start) + 1
        out.append(((site.kind, site.line, site.start - line_start, site.end - line_start,
                     site.original_token, site.replacement_token), mutated))
    return out


def reference_sites(source):
    return [(site, tokenize_mutant(source, site)) for site in tokenize_sites(source)]


class TestScannerSites:
    """Sites come from the scanner's stream and splice by offset; on
    Python 3.11 they match the tokenize-based finder they replaced."""

    @needs_python_tokenize
    def test_corpus_matches_tokenize_reference(self, lexer_corpus):
        with_sites = 0
        for source in lexer_corpus:
            found = scanner_sites(source)
            assert found == reference_sites(source), source
            with_sites += bool(found)
        assert with_sites > 250

    @needs_python_tokenize
    def test_random_texts_match_tokenize_reference(self):
        pieces = [
            "def", "f", "a1", "é", "return", "if", "while", "not", "and", "or",
            "in", "else", "continue", "break", "True", "(", ")", "[", "]", "{",
            "}", ":", ",", "=", "+", "-", "- ", "*", "//", "%", "<", "<=", ">",
            ">=", "==", "!=", "**", " ", "    ", "\t", "\x0c", "\n", "\n    ",
            "\r\n", "\r", "\\\n", "#c", "'", '"', "'x'", 'f"{a1+1}"', "rb",
            "1", "07", "1_0", "0x1F", "1.5", ".5", "1j", "$", "?",
        ]
        rng = random.Random(13)
        with_sites = 0
        for _ in range(3000):
            source = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 30)))
            found = scanner_sites(source)
            assert found == reference_sites(source), source
            with_sites += bool(found)
        assert with_sites > 800

    def test_small_corpus_mutants_pinned(self, small_corpus):
        digest = hashlib.sha256()
        count = 0
        for problem in small_corpus:
            for mutated, site in enumerate_source_mutants(problem.source):
                record = json.dumps([mutated, site.to_json()], sort_keys=True)
                digest.update(record.encode() + b"\n")
                count += 1
        assert (len(small_corpus), count) == (60, 657)
        assert digest.hexdigest() == SMALL_CORPUS_MUTANTS_SHA256

    def test_sort_key_orders_by_line_and_column(self):
        # the tie pool of select_mutant is sorted as (line, column,
        # replacement) ordered it before sites carried offsets
        source = "def f(a):\n    if a < 1:\n        return a - 2\n    return -3"
        sites = mutation_sites(source)

        def line_column(site):
            column = site.start - source.rfind("\n", 0, site.start) - 1
            return (site.line, column, site.replacement_token)

        assert sorted(sites, key=lambda s: s.sort_key()) == sorted(sites, key=line_column)
        assert [s.start for s in sites] == sorted(s.start for s in sites)


def make_survivor(name, covered, site_index=0):
    sites = mutation_sites("def f(a):\n    return a + 1")
    return Survivor(name, sites[site_index], None, covered)


class TestSelect:
    def test_single_survivor_returned(self):
        survivor = make_survivor("s", {1, 2})
        assert select_mutant({1, 2, 3}, [survivor], random.Random(0)) is survivor

    def test_hand_computed_jaccard_values(self):
        original = {1, 2, 3}
        a = make_survivor("a", {1, 2, 3})  # J = 1.0
        b = make_survivor("b", {1, 2})  # J = 2/3
        c = make_survivor("c", {1})  # J = 1/3
        assert jaccard(original, a.covered_lines) == 1.0
        assert jaccard(original, b.covered_lines) == pytest.approx(2 / 3)
        assert jaccard(original, c.covered_lines) == pytest.approx(1 / 3)
        for order in ([a, b, c], [c, b, a], [b, a, c]):
            assert select_mutant(original, order, random.Random(1)) is a

    def test_tie_break_uniform_across_seeds(self):
        original = {1, 2, 3}
        counts = {"x": 0, "y": 0}
        for seed in range(1, 101):
            x = make_survivor("x", {1, 2}, site_index=0)
            y = make_survivor("y", {2, 3}, site_index=1)
            pick = select_mutant(original, [x, y], random.Random(seed))
            counts[pick.source] += 1
        assert counts["x"] + counts["y"] == 100
        assert 40 <= counts["x"] <= 60, counts

    def test_tie_break_order_independent(self):
        # survivors are distinct (site, replacement) pairs; the tie pool is
        # sorted by site position, so list order cannot change the draw
        original = {1, 2}
        x = make_survivor("x", {1}, site_index=0)
        y = make_survivor("y", {2}, site_index=1)
        pick_ab = select_mutant(original, [x, y], random.Random(42)).source
        x2 = make_survivor("x", {1}, site_index=0)
        y2 = make_survivor("y", {2}, site_index=1)
        pick_ba = select_mutant(original, [y2, x2], random.Random(42)).source
        assert pick_ab == pick_ba


class TestMutateDataset:
    def test_no_mutable_sites_drops_problem(self):
        problem = make_problem("def f(lst):\n    return lst", "[1, 2]", "[1, 2]")
        kept, mutants = mutate_dataset([problem], BuiltinExecutor(), seed=0)
        assert kept == [] and mutants == []

    def test_correspondence_and_different_outputs(self, small_corpus):
        problems = small_corpus[:40]
        kept, mutants = mutate_dataset(problems, BuiltinExecutor(), seed=3)
        assert len(kept) == len(mutants)
        for original, mutant in zip(kept, mutants):
            assert original.id == mutant.id
            assert mutant.mutation_info is not None
            assert not values_equal(original.output_value(), mutant.output_value())
            # exactly one line differs, at the recorded line
            diff = [
                i for i, (a, b) in enumerate(
                    zip(original.source.splitlines(), mutant.source.splitlines())
                ) if a != b
            ]
            assert diff == [mutant.mutation_info["line"] - 1]

    def test_mutants_execute_ok_on_their_input(self, small_corpus):
        problems = small_corpus[:40]
        executor = BuiltinExecutor()
        kept, mutants = mutate_dataset(problems, executor, seed=3)
        for mutant in mutants:
            result = executor.run(
                mutant.source, mutant.function_name, mutant.args()
            )
            assert result.status == "ok"
            assert values_equal(result.output, mutant.output_value())

    def test_each_source_enumerated_once(self, small_corpus, monkeypatch):
        # the problems of one program share its source and its mutants
        problems = small_corpus[:20]
        expected = mutate_dataset(problems, BuiltinExecutor(), seed=9)
        scanned = []

        def counting_sites(source):
            scanned.append(source)
            return mutation_sites(source)

        monkeypatch.setattr(mutate, "mutation_sites", counting_sites)
        assert mutate_dataset(problems, BuiltinExecutor(), seed=9) == expected
        assert sorted(scanned) == sorted({p.source for p in problems})
        assert len(scanned) < len(problems)

    def test_deterministic_given_seed(self, small_corpus):
        problems = small_corpus[:20]
        first = mutate_dataset(problems, BuiltinExecutor(), seed=9)
        second = mutate_dataset(problems, BuiltinExecutor(), seed=9)
        assert [p.to_json() for p in first[1]] == [p.to_json() for p in second[1]]

    def test_drop_rate_regression(self, small_corpus):
        problems = small_corpus[:100]
        kept, _ = mutate_dataset(problems, BuiltinExecutor(), seed=0)
        # frozen after measurement on the session corpus (seed 11): the
        # 60-problem slice keeps 50 pairs, 10 dropped for empty survivor sets
        assert (len(problems), len(kept)) == (60, 50)
