"""Single-operator program mutation with coverage-similar selection.

Mutants are produced by splicing one token span of the source text:

* arithmetic operator -> each other member of ``+ - * // %``
* relational operator -> each other member of ``< <= > >= == !=``
* ``and`` <-> ``or``
* ``continue`` <-> ``break``
* integer literal n -> n-1 and n+1 (a unary minus directly before a number
  is folded into the literal, so ``-1`` mutates to ``-2`` and ``0``)

The tokens come from the mini-language's scanner (``minipy._scan``), which
cuts Python text as the standard library's ``tokenize`` does on Python 3.11
on every host: an f-string is one string token, whatever the version.  A
site is a token's offset span, and its mutant is the source with that span
replaced, so formatting and line numbering stay identical everywhere else,
which is what makes line-coverage comparison between a program and its
mutants meaningful.  It also works unchanged on externally executed programs,
since the mini-language is a syntactic subset of the host language.

A mutant survives filtering when it executes without error on the paired
input and produces a structurally different output.  Among survivors the one
whose covered-line set has the highest Jaccard similarity with the original's
is selected; ties are broken uniformly at random.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .problems import Problem
from .values import canonical_repr, values_equal

ARITHMETIC_OPS = ("+", "-", "*", "//", "%")
RELATIONAL_OPS = ("<", "<=", ">", ">=", "==", "!=")

_KIND_BY_TOKEN = {op: "arithmetic" for op in ARITHMETIC_OPS}
_KIND_BY_TOKEN.update({op: "relational" for op in RELATIONAL_OPS})
_KIND_BY_TOKEN.update({"and": "logical", "or": "logical",
                       "continue": "keyword", "break": "keyword"})
# Names after which an operator is unary: no operand ends with them.
_OPERAND_CANNOT_END = frozenset((
    "and", "or", "not", "in", "return", "if", "elif", "while", "assert",
    "else", "lambda", "yield",
))


class MutationSite:
    __slots__ = ("kind", "line", "start", "end", "original_token", "replacement_token")

    def __init__(self, kind: str, line: int, start: int, end: int,
                 original_token: str, replacement_token: str):
        self.kind = kind  # arithmetic | relational | logical | keyword | literal
        self.line = line  # 1-based
        self.start = start  # offsets of the replaced span in the source
        self.end = end
        self.original_token = original_token
        self.replacement_token = replacement_token

    def sort_key(self):
        return (self.start, self.replacement_token)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "line": self.line,
            "original_token": self.original_token,
            "replacement_token": self.replacement_token,
        }


def _replacements(kind: str, token: str) -> list[str]:
    if kind == "arithmetic":
        return [op for op in ARITHMETIC_OPS if op != token]
    if kind == "relational":
        return [op for op in RELATIONAL_OPS if op != token]
    if kind == "logical":
        return ["or"] if token == "and" else ["and"]
    if kind == "keyword":
        return ["break"] if token == "continue" else ["continue"]
    raise ValueError(kind)


def _int_value(text: str) -> int | None:
    try:
        return int(text, 0)
    except ValueError:
        return None


def mutation_sites(source: str) -> list[MutationSite]:
    """All (site, replacement) pairs over the source's token stream."""
    # imported here: the commands that only read datasets need no parser
    from .minipy import (
        DEDENT, ENDMARKER, INDENT, NAME, NEWLINE, NUMBER, OP, STRING, ParseError, _scan,
    )

    try:
        tokens = _scan(source)
    except ParseError:
        return []
    sites: list[MutationSite] = []

    def add(kind: str, line: int, start: int, end: int, original: str,
            replacements: list[str]):
        for repl in replacements:
            sites.append(MutationSite(kind, line, start, end, original, repl))

    prev = None  # the last token that is no line break, indent or dedent
    minus = None  # (line, start) of a unary '-' awaiting a number
    for tok in tokens:
        kind, string, line, start = tok
        if kind in (NEWLINE, INDENT, DEDENT, ENDMARKER):
            continue
        end = start + len(string)
        if minus is not None:
            minus_line, minus_start = minus
            minus = None
            if kind == NUMBER and line == minus_line:
                value = _int_value(string)
                if value is not None:
                    add("literal", line, minus_start, end, f"-{string}",
                        [str(-value - 1), str(-value + 1)])
                    prev = tok
                    continue
        op_kind = _KIND_BY_TOKEN.get(string) if kind in (OP, NAME) else None
        if op_kind is not None:
            # an operator after an operand is binary; a keyword always counts
            if kind == NAME or prev is not None and (
                prev[0] in (NUMBER, STRING)
                or prev[0] == NAME and prev[1] not in _OPERAND_CANNOT_END
                or prev[0] == OP and prev[1] in (")", "]", "}")
            ):
                add(op_kind, line, start, end, string, _replacements(op_kind, string))
            elif string == "-":
                minus = (line, start)
        elif kind == NUMBER:
            value = _int_value(string)
            if value is not None:
                add("literal", line, start, end, string, [str(value - 1), str(value + 1)])
        prev = tok
    return sites


def apply_site(source: str, site: MutationSite) -> str:
    return source[: site.start] + site.replacement_token + source[site.end :]


def enumerate_source_mutants(source: str) -> list[tuple[str, MutationSite]]:
    """One mutant source per (site, replacement); formatting preserved."""
    return [(apply_site(source, site), site) for site in mutation_sites(source)]


class Survivor:
    __slots__ = ("source", "site", "output", "covered_lines")

    def __init__(self, source: str, site: MutationSite, output: object,
                 covered_lines: set[int]):
        self.source = source
        self.site = site
        self.output = output
        self.covered_lines = covered_lines


def jaccard(a: set[int], b: set[int]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def select_mutant(
    original_coverage: set[int], survivors: list[Survivor], rng: random.Random
) -> Survivor:
    """Survivor with the most similar line coverage; ties drawn uniformly."""
    if not survivors:
        raise ValueError("no survivors to select from")
    scored = [(jaccard(original_coverage, s.covered_lines), s) for s in survivors]
    best = max(score for score, _ in scored)
    tied = sorted(
        (s for score, s in scored if abs(score - best) < 1e-12),
        key=lambda s: s.site.sort_key(),
    )
    return tied[0] if len(tied) == 1 else rng.choice(tied)


class MutantSet:
    __slots__ = ("original", "candidates", "survivors", "selected")

    def __init__(self, original: Problem, candidates: list[tuple[str, MutationSite]],
                 survivors: list[Survivor], selected: Survivor | None):
        self.original = original
        self.candidates = candidates
        self.survivors = survivors
        self.selected = selected


def mutate_problem(problem: Problem, executor, rng: random.Random,
                   candidates: list[tuple[str, MutationSite]]) -> MutantSet:
    """Run the mutants ``candidates`` of the problem's source, which are
    ``enumerate_source_mutants(problem.source)``, on its input, and select
    one of the survivors: the mutants that run cleanly and change the
    output.  The problem's own run and its mutants' runs go to the executor
    as one batch."""
    args = problem.args()
    base, *results = executor.run_many(
        [(source, problem.function_name, args)
         for source in [problem.source, *(source for source, _ in candidates)]])
    if base.status != "ok":
        raise ValueError(f"problem {problem.id} does not execute cleanly")
    expected = problem.output_value()
    survivors = [Survivor(source, site, result.output, set(result.covered_lines))
                 for (source, site), result in zip(candidates, results)
                 if result.status == "ok" and not values_equal(result.output, expected)]
    selected = (
        select_mutant(set(base.covered_lines), survivors, rng) if survivors else None
    )
    return MutantSet(problem, candidates, survivors, selected)


def mutate_dataset(
    problems: list[Problem], executor, seed: int = 0
) -> tuple[list[Problem], list[Problem]]:
    """Produce the kept-original and mutated problem lists in one-to-one
    correspondence; problems with no valid mutant are dropped from both."""
    kept: list[Problem] = []
    mutated: list[Problem] = []
    # the mutants of each distinct source, enumerated once: the problems of
    # one program share its source
    candidates_of: dict[str, list[tuple[str, MutationSite]]] = {}
    for problem in problems:
        candidates = candidates_of.get(problem.source)
        if candidates is None:
            candidates = candidates_of[problem.source] = enumerate_source_mutants(
                problem.source)
        rng = random.Random(f"{seed}:{problem.id}")
        ms = mutate_problem(problem, executor, rng, candidates)
        if ms.selected is None:
            continue
        kept.append(problem)
        mutated.append(
            replace(
                problem,
                source=ms.selected.source,
                output=canonical_repr(ms.selected.output),
                mutation_info=ms.selected.site.to_json(),
            )
        )
    return kept, mutated
