"""Problem records and JSONL persistence.

A problem is one (program, input) pair with its ground-truth output; the
three datasets and their mutated counterparts all use this one schema.
Inputs and outputs are stored as canonical literal text so files are
diffable and ground truths can be re-verified by re-execution.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import asdict, dataclass

from .values import Value, parse_args, parse_literal


@dataclass(frozen=True)
class Problem:
    id: str
    dataset: str
    source: str
    function_name: str
    input: str  # comma-separated canonical argument literals
    output: str  # canonical literal text of the ground truth
    loc: int
    executor: str  # builtin | external
    program_id: str | None = None
    dsl_text: str | None = None
    depth: int | None = None
    arity: int | None = None
    mutation_info: dict | None = None

    def args(self) -> tuple[Value, ...]:
        return parse_args(self.input)

    def output_value(self) -> Value:
        return parse_literal(self.output)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "Problem":
        return cls(**data)


@contextlib.contextmanager
def atomic_writer(path: str):
    """A text handle on a temp file that replaces ``path`` on a clean exit,
    so ``path`` either has the full content or is untouched.  The temp file
    is opened like any other, so the result gets the usual permissions."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_jsonl(problems: list[Problem], path: str) -> None:
    with atomic_writer(path) as fh:
        for p in problems:
            fh.write(json.dumps(p.to_json(), ensure_ascii=False) + "\n")


def load_jsonl(path: str) -> list[Problem]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                out.append(Problem.from_json(json.loads(line)))
    return out


def pair_by_id(
    originals: list[Problem], mutants: list[Problem]
) -> list[tuple[Problem, Problem]]:
    by_id = {p.id: p for p in mutants}
    missing = [p.id for p in originals if p.id not in by_id]
    if missing or len(originals) != len(mutants):
        raise ValueError(f"datasets are not in one-to-one correspondence: {missing[:3]}")
    return [(p, by_id[p.id]) for p in originals]
