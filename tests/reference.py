"""References the tests compare the package against.

No command runs these.  Each is a plain or independent way to compute what
the package computes by a faster or narrower path:

* ``_draw_tables`` and ``PlainSampler``: the grammar's own productions as
  draw tables, the plain distribution that the conditioned tables of
  ``grammar.Sampler`` condition on s4;
* ``compile_violations``: the compile-time rules c1-c4 checked on a term,
  which ``grammar.compile_cfg`` builds into the grammar;
* ``enumerate_terms``: every derivation of a small grammar;
* ``eval_dsl_outcome``: ``dsl.eval_dsl_outcomes`` on one argument tuple;
* ``app`` and ``partial``: terms built by hand;
* ``verify_partition``: the judgments of each problem-variant partition its
  samples;
* ``random_texts``, ``compiles`` and ``parsed_outside_python``:
  ``compile`` as the judge of which texts ``minipy.parse`` may accept, and
  ``compiles_as_tokenized`` of which ones the scanner reads as ``tokenize``;
* ``lexer_texts`` and ``indentation_texts``: texts for the scanner, to
  compare with ``tokenize`` on those that ``compile`` accepts;
* ``typed_term_calls``: every derivation of the depth-3 grammars,
  translated, with sampled arguments.
"""

from __future__ import annotations

import itertools
import keyword
import math
import random
import warnings
from collections import defaultdict

from mutexec import minipy
from mutexec.dsl import COMPARISONS, Term, Violation, eval_dsl_outcomes
from mutexec.grammar import (
    Sampler, SamplerConfig, compile_cfg, production_weight, sample_inputs,
)
from mutexec.transpile import translate


# ---------------------------------------------------------------------------
# Grammar


def _draw_tables(cfg, overrides: dict[str, float]):
    """The grammar's productions with nonterminals interned to ints.

    Returns the rows, one per nonterminal of ``cfg.productions`` in order,
    so the start symbol is row 0.  A row is ``(cumulative, total,
    entries)``: the running sums of the production weights with the last
    one replaced by infinity, so that a draw never runs past the row; the
    true sum, which scales the draw; and per production ``(production,
    children)``, with ``children`` the row indices in reverse, so a stack
    pops them left to right.
    """
    index = {nt: i for i, nt in enumerate(cfg.productions)}
    rows = []
    for prods in cfg.productions.values():
        cumulative: list[float] = []
        total = 0.0
        entries = []
        for p in prods:
            total += production_weight(p, overrides)
            cumulative.append(total)
            entries.append((p, tuple(index[c] for c in reversed(p.children))))
        cumulative[-1] = math.inf
        rows.append((cumulative, total, tuple(entries)))
    return rows


class PlainSampler(Sampler):
    """``Sampler`` over the plain tables (``_draw_tables``): every
    derivation of the grammar with the product of its production weights'
    shares, whether or not it uses every parameter."""

    def __init__(self, cfg, overrides: dict[str, float] | None = None):
        self.rows = _draw_tables(cfg, overrides or {})


def typed_term_calls(seed: int) -> list[tuple]:
    """``(source, "f", args)`` for every derivation of ``compile_cfg(1, 3)``
    and ``compile_cfg(2, 3)``, translated, on two argument tuples that
    ``sample_inputs`` draws for it, all drawn with ``seed``."""
    rng = random.Random(seed)
    config = SamplerConfig(input_count=2)
    calls = []
    for arity in (1, 2):
        for term in enumerate_terms(compile_cfg(arity, 3)):
            source = translate(term, arity=arity).source
            calls.extend((source, "f", args) for args in sample_inputs(arity, config, rng))
    return calls


def enumerate_terms(cfg, limit: int | None = None):
    """Yield every derivable term (small grammars only)."""
    produced = 0

    def expand(nt):
        for p in cfg.productions[nt]:
            if p.head == "lit":
                yield Term("lit", value=p.value)
            elif p.head == "param":
                yield Term("param", value=p.value)
            elif not p.children:
                yield Term(p.head, partial=p.partial)
            else:
                for combo in itertools.product(*[expand(c) for c in p.children]):
                    yield Term(p.head, tuple(combo), partial=p.partial)

    for term in expand(cfg.start):
        yield term
        produced += 1
        if limit is not None and produced >= limit:
            return


# ---------------------------------------------------------------------------
# Terms


def _is_empty_node(node: Term) -> bool:
    return node.head == "empty" and not node.partial


def compile_violations(term: Term) -> list[Violation]:
    """Every violated compile-time rule: (c1) the first argument of a
    comparison is not an integer literal; (c2) the last argument of
    extend/length/map is not ``empty``; (c3) the literal -1 appears only as
    the first argument of ``index``; (c4) index/init/tail are never applied
    to ``empty``."""
    out: list[Violation] = []
    for node in term.walk():
        if node.head in COMPARISONS and node.children:
            if node.children[0].is_lit:
                out.append(Violation("c1", node, "comparison of a literal"))
        if not node.partial:
            if node.head in ("extend", "map") and _is_empty_node(node.children[1]):
                out.append(Violation("c2", node, f"{node.head} of empty"))
            if node.head == "length" and _is_empty_node(node.children[0]):
                out.append(Violation("c2", node, "length of empty"))
            if node.head in ("init", "tail") and _is_empty_node(node.children[0]):
                out.append(Violation("c4", node, f"{node.head} of empty"))
            if node.head == "index" and _is_empty_node(node.children[1]):
                out.append(Violation("c4", node, "index into empty"))
    allowed = set()
    for node in term.walk():
        if node.head == "index" and node.children:
            allowed.add(id(node.children[0]))
    for node in term.walk():
        if node.is_lit and node.value == -1 and id(node) not in allowed:
            out.append(Violation("c3", node, "-1 outside index position"))
    return out


def app(head: str, *children: Term) -> Term:
    return Term(head, tuple(children))


def partial(head: str, *children: Term) -> Term:
    return Term(head, tuple(children), partial=True)


def eval_dsl_outcome(term: Term, args: tuple):
    return next(eval_dsl_outcomes(term, (args,)))


# ---------------------------------------------------------------------------
# Records


def verify_partition(records, n: int) -> list[str]:
    """Problem-variants whose judgment counts do not partition n samples."""
    groups = defaultdict(list)
    for r in records:
        groups[(r.problem_id, r.variant)].append(r)
    problems = []
    for (problem_id, variant), group in sorted(groups.items()):
        counts = defaultdict(int)
        for r in group:
            counts[r.judgment] += 1
        total = sum(counts[c] for c in ("correct", "reverted", "other", "unparsed"))
        if total != n or len(group) != n:
            problems.append(f"{problem_id}/{variant}: {dict(counts)}")
    return problems


# ---------------------------------------------------------------------------
# Parser

# The pieces of ``random_texts``, joined with a blank: a number run into a
# keyword (``1and``, ``0or``) is a case for the tokenizer, where the lexer
# follows 3.11's tokenize and later CPythons warn or fail.
TEXT_PIECES = (
    *keyword.kwlist, "f", "a1", "v1", "len", "range", "append", "pop", "0", "1",
    "(", ")", "[", "]", ",", ",", ":", ".", "=", "+", "-", "<", "==",
    "\n", "\n", "\n    ",
)


def random_texts(seed: int, count: int) -> list[str]:
    """``count`` texts of 1 to 12 pieces of ``TEXT_PIECES``, drawn with
    ``seed``."""
    rng = random.Random(seed)
    return [" ".join(rng.choices(TEXT_PIECES, k=rng.randint(1, 12)))
            for _ in range(count)]


def compiles(source: str) -> bool:
    """Whether ``compile``, which the external child runs, accepts
    ``source``."""
    try:
        with warnings.catch_warnings():  # ``1[0]``'s SyntaxWarning, say
            warnings.simplefilter("ignore")
            compile(source, "<text>", "exec")
    except SyntaxError:
        return False
    return True


def compiles_as_tokenized(source: str) -> bool:
    """Whether ``compile`` accepts ``source`` and it holds no CR outside a
    CRLF, which CPython reads as a line break and ``tokenize`` does not: the
    texts on which the scanner's tokens are tokenize's."""
    return compiles(source) and "\r" not in source.replace("\r\n", "")


def parsed_outside_python(sources) -> list[str]:
    """The sources that ``minipy.parse`` accepts and ``compile`` refuses."""
    out = []
    for source in sources:
        try:
            minipy.parse(source)
        except minipy.ParseError:
            continue
        if not compiles(source):
            out.append(source)
    return out


# Pieces of ``lexer_texts``, joined with nothing: names, keywords, numbers
# and number-like spans, operators, brackets, quotes and string literals,
# comments, every kind of blank and line break, backslashes and characters
# that start no token.
LEXER_PIECES = (
    "def", "f", "a1", "é", "return", "if", "while", "not", "and", "or", "in", "else",
    "continue", "break", "True", "rb", "(", ")", "[", "]", "{", "}", ":", ",", "=",
    "+", "-", "- ", "*", "**", "//", "%", "<", "<=", ">", ">=", "==", "!=", "...",
    "1", "01", "07", "1_0", "0x1", "0x1F", "1.5", ".5", "1j",
    "'", '"', "'''", "'x'", 'f"{a1+1}"', "#c",
    " ", "    ", "\t", "\x0c", "\n", "\n    ", "\n  ", "\n\t", "\r\n", "\r",
    "\\\n", "\\", "$", "?", "\x0b",
)


def lexer_texts(seed: int, count: int) -> list[str]:
    """``count`` texts of 1 to 30 pieces of ``LEXER_PIECES``, drawn with
    ``seed``."""
    rng = random.Random(seed)
    return ["".join(rng.choices(LEXER_PIECES, k=rng.randint(1, 30))) for _ in range(count)]


def indentation_texts(seed: int, count: int) -> list[str]:
    """``count`` functions whose lines are indented by 0 to 3 random blanks,
    tabs and form feeds, drawn with ``seed``: every fault of these texts is
    one of indentation, a ``return`` at column 0 outside the ``def``, or
    another statement at column 0."""
    rng = random.Random(seed)
    sources = []
    for _ in range(count):
        lines = ["def f(a1):"]
        for _ in range(rng.randint(1, 6)):
            indent = "".join(rng.choice([" ", "    ", "\t", "\x0c"])
                             for _ in range(rng.randint(0, 3)))
            lines.append(indent + rng.choice(["if a1:", "v1 = a1"]))
        lines.append(rng.choice(["", "    ", "\t"]) + "return a1")
        sources.append("\n".join(lines) + "\n")
    return sources
