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

# [lo, hi) line-count bins of ``Problem.loc``: the DSL-List dataset fills
# each one equally and the report's LOC series is cut at the same edges.
LOC_BINS: tuple[tuple[int, int], ...] = ((4, 8), (8, 12), (12, 16), (16, 20), (20, 24))


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


def read_jsonl(path: str, make, torn_tail: bool = False) -> list:
    """``make(**record)`` for each JSON object of a JSONL file.

    A line that holds no object, or an object whose keys ``make`` does not
    take, raises ValueError naming the path and line.  With ``torn_tail``, a
    last line that lacks its newline and does not parse is the torn tail of
    an interrupted append and is dropped; any other malformed line raises.
    """
    out = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError:
                if torn_tail and not line.endswith(b"\n"):
                    break
                raise
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{number}: expected a JSON object, got {type(record).__name__}")
            try:
                out.append(make(**record))
            except TypeError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
    return out


def load_jsonl(path: str) -> list[Problem]:
    return read_jsonl(path, Problem)


def pair_by_id(
    originals: list[Problem], mutants: list[Problem]
) -> list[tuple[Problem, Problem]]:
    by_id = {p.id: p for p in mutants}
    missing = [p.id for p in originals if p.id not in by_id]
    if missing or len(originals) != len(mutants):
        raise ValueError(f"datasets are not in one-to-one correspondence: {missing[:3]}")
    return [(p, by_id[p.id]) for p in originals]
