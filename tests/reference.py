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
* ``random_texts`` and ``parsed_outside_python``: ``compile`` as the
  judge of which texts ``minipy.parse`` may accept.
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
from mutexec.grammar import Sampler, production_weight


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


def parsed_outside_python(sources) -> list[str]:
    """The sources that ``minipy.parse`` accepts and ``compile``, which the
    external child runs, refuses."""
    out = []
    for source in sources:
        try:
            minipy.parse(source)
        except minipy.ParseError:
            continue
        try:
            with warnings.catch_warnings():  # ``1[0]``'s SyntaxWarning, say
                warnings.simplefilter("ignore")
                compile(source, "<text>", "exec")
        except SyntaxError:
            out.append(source)
    return out
