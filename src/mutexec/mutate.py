"""Single-operator program mutation with coverage-similar selection.

Mutants are produced by splicing one token span of the source text:

* arithmetic operator -> each other member of ``+ - * // %``
* relational operator -> each other member of ``< <= > >= == !=``
* ``and`` <-> ``or``
* ``continue`` <-> ``break``
* integer literal n -> n-1 and n+1 (a unary minus directly before a number
  is folded into the literal, so ``-1`` mutates to ``-2`` and ``0``)

Token splicing keeps formatting and line numbering identical everywhere else,
which is what makes line-coverage comparison between a program and its
mutants meaningful.  It also works unchanged on externally executed programs,
since the mini-language is a syntactic subset of the host language.

A mutant survives filtering when it executes without error on the paired
input and produces a structurally different output.  Among survivors the one
whose covered-line set has the highest Jaccard similarity with the original's
is selected; ties are broken uniformly at random.
"""

from __future__ import annotations

import io
import random
import tokenize as _tok
from dataclasses import dataclass, replace

from .problems import Problem
from .values import canonical_repr, values_equal

ARITHMETIC_OPS = ("+", "-", "*", "//", "%")
RELATIONAL_OPS = ("<", "<=", ">", ">=", "==", "!=")

_KIND_BY_OP = {op: "arithmetic" for op in ARITHMETIC_OPS}
_KIND_BY_OP.update({op: "relational" for op in RELATIONAL_OPS})


@dataclass(frozen=True)
class MutationSite:
    kind: str  # arithmetic | relational | logical | keyword | literal
    line: int  # 1-based
    col: int
    end_col: int
    original_token: str
    replacement_token: str

    def sort_key(self):
        return (self.line, self.col, self.replacement_token)

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
        value = int(text, 0)
    except ValueError:
        return None
    return value


def mutation_sites(source: str) -> list[MutationSite]:
    """All (site, replacement) pairs over the source's token stream."""
    try:
        tokens = list(_tok.generate_tokens(io.StringIO(source).readline))
    except (_tok.TokenError, IndentationError, SyntaxError):
        return []
    sites: list[MutationSite] = []
    prev_significant = None
    pending_minus = None  # start position of a unary '-' awaiting a number

    def add(kind: str, line: int, col: int, end_col: int, original: str):
        for repl in _replacements(kind, original):
            sites.append(MutationSite(kind, line, col, end_col, original, repl))

    def add_literal(value: int, line: int, col: int, end_col: int, original: str):
        for new in (value - 1, value + 1):
            sites.append(
                MutationSite("literal", line, col, end_col, original, str(new))
            )

    for tok in tokens:
        if tok.type in (_tok.COMMENT, _tok.NL, _tok.NEWLINE, _tok.INDENT,
                        _tok.DEDENT, _tok.ENCODING, _tok.ENDMARKER):
            continue
        if pending_minus is not None:
            start, minus_row = pending_minus
            pending_minus = None
            if tok.type == _tok.NUMBER and tok.start[0] == minus_row:
                value = _int_value(tok.string)
                if value is not None:
                    add_literal(
                        -value, minus_row, start, tok.end[1], f"-{tok.string}"
                    )
                    prev_significant = tok
                    continue
        if tok.type == _tok.OP and tok.string in _KIND_BY_OP:
            binary = prev_significant is not None and (
                prev_significant.type in (_tok.NUMBER, _tok.STRING)
                or (prev_significant.type == _tok.NAME
                    and prev_significant.string not in
                    ("and", "or", "not", "in", "return", "if", "elif", "while",
                     "assert", "else", "lambda", "yield"))
                or (prev_significant.type == _tok.OP
                    and prev_significant.string in (")", "]", "}"))
            )
            if binary:
                add(_KIND_BY_OP[tok.string], tok.start[0], tok.start[1],
                    tok.end[1], tok.string)
            elif tok.string == "-":
                pending_minus = (tok.start[1], tok.start[0])
        elif tok.type == _tok.NAME and tok.string in ("and", "or"):
            add("logical", tok.start[0], tok.start[1], tok.end[1], tok.string)
        elif tok.type == _tok.NAME and tok.string in ("continue", "break"):
            add("keyword", tok.start[0], tok.start[1], tok.end[1], tok.string)
        elif tok.type == _tok.NUMBER:
            value = _int_value(tok.string)
            if value is not None:
                add_literal(value, tok.start[0], tok.start[1], tok.end[1], tok.string)
        prev_significant = tok
    return sites


def apply_site(source: str, site: MutationSite) -> str:
    # lines end at "\n" only, as mutation_sites numbers them
    lines = source.split("\n")
    line = lines[site.line - 1]
    lines[site.line - 1] = (
        line[: site.col] + site.replacement_token + line[site.end_col :]
    )
    return "\n".join(lines)


def enumerate_source_mutants(source: str) -> list[tuple[str, MutationSite]]:
    """One mutant source per (site, replacement); formatting preserved."""
    return [(apply_site(source, site), site) for site in mutation_sites(source)]


@dataclass
class Survivor:
    source: str
    site: MutationSite
    output: object
    covered_lines: set[int]


def filter_valid(original: Problem, candidates, executor) -> list[Survivor]:
    """Keep mutants that run cleanly on the problem input and change the output.

    ``candidates`` is an iterable of (source, site) pairs; ``executor`` runs
    (source, function_name, args, trace) and reports status/output/coverage.
    """
    args = original.args()
    expected = original.output_value()
    survivors = []
    for source, site in candidates:
        result = executor.run(source, original.function_name, args, trace=True)
        if result.status != "ok":
            continue
        if values_equal(result.output, expected):
            continue
        survivors.append(Survivor(source, site, result.output, set(result.covered_lines)))
    return survivors


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


@dataclass
class MutantSet:
    original: Problem
    candidates: list[tuple[str, MutationSite]]
    survivors: list[Survivor]
    selected: Survivor | None


def mutate_problem(problem: Problem, executor, rng: random.Random) -> MutantSet:
    candidates = [
        (src, site) for src, site in enumerate_source_mutants(problem.source)
    ]
    base = executor.run(problem.source, problem.function_name, problem.args(), trace=True)
    if base.status != "ok":
        raise ValueError(f"problem {problem.id} does not execute cleanly")
    survivors = filter_valid(problem, candidates, executor)
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
    for problem in problems:
        rng = random.Random(f"{seed}:{problem.id}")
        ms = mutate_problem(problem, executor, rng)
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
