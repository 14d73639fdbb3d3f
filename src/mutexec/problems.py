"""Problem records and JSONL persistence.

A problem is one (program, input) pair with its ground-truth output; the
three datasets and their mutated counterparts all use this one schema.
Inputs and outputs are stored as canonical literal text so files are
diffable and ground truths can be re-verified by re-execution.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
from dataclasses import dataclass

from .values import Value, parse_args, parse_literal

# [lo, hi) line-count bins of ``Problem.loc``: the DSL-List dataset fills
# each one equally and the report's LOC series is cut at the same edges.
LOC_BINS: tuple[tuple[int, int], ...] = ((4, 8), (8, 12), (12, 16), (16, 20), (20, 24))


def _json_writer():
    """``json.JSONEncoder(ensure_ascii=False).encode``, with the C encoder
    built once rather than on each call, which took about a third of the time
    of encoding a record.  What is written holds no cycle, so it is not
    checked for one."""
    encoder = json.JSONEncoder(ensure_ascii=False)
    make_encoder = json.encoder.c_make_encoder
    if make_encoder is None:  # an interpreter without the C accelerator
        return encoder.encode
    chunks = make_encoder(None, encoder.default, json.encoder.c_encode_basestring, None,
                          encoder.key_separator, encoder.item_separator, False, False,
                          True)

    def encode(obj) -> str:
        return "".join(chunks(obj, 0))

    return encode


# The one JSON writer of every JSONL file: datasets, records and transcripts.
encode_json = _json_writer()
_raw_decode = json.JSONDecoder().raw_decode


def split_json(obj: dict, *keys: str) -> list[str]:
    """The text of ``encode_json(obj)`` cut around the values of ``keys``.

    With ``k1 … km`` the keys in the order ``obj`` holds them, the parts
    ``p0 … pm`` give ``p0 + encode_json(v1) + p1 + … + encode_json(vm) + pm
    == encode_json(obj)`` for the values ``vi`` at ``ki``, whatever they are,
    so a writer of many objects that differ only at ``keys`` encodes the rest
    of them once.
    """
    parts, text, sep, run = [], "{", "", {}
    for name, value in obj.items():
        if name in keys:
            if run:
                text += sep + encode_json(run)[1:-1]
                sep, run = ", ", {}
            parts.append(text + sep + encode_json(name) + ": ")
            text, sep = "", ", "
        else:
            run[name] = value
    if run:
        text += sep + encode_json(run)[1:-1]
    parts.append(text + "}")
    return parts


def loads_line(text: str):
    """``json.loads(text)``, read by one ``raw_decode`` where the line is one
    value and its newline, as every line that ``encode_json`` wrote is."""
    try:
        value, end = _raw_decode(text)
        if text[end:] == "\n":
            return value
    except ValueError:
        pass
    return json.loads(text)


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
        out = dict(vars(self))
        if self.mutation_info is not None:
            out["mutation_info"] = dict(self.mutation_info)
        return out


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
            fh.write(encode_json(p.to_json()) + "\n")


def read_jsonl(path: str, make, torn_tail: bool = False) -> list:
    """The list of ``iter_jsonl(path, make, torn_tail)``."""
    return list(iter_jsonl(path, make, torn_tail))


def iter_jsonl(path: str, make, torn_tail: bool = False, decode=loads_line):
    """``make(**record)`` for each JSON object of a JSONL file, or the object
    itself where ``make`` is None, one line at a time; ``decode`` turns a
    line's text into its value.

    A line that holds no object, or an object whose keys ``make`` does not
    take, raises ValueError naming the path and line.  With ``torn_tail``, a
    last line that lacks its newline and does not parse is the torn tail of
    an interrupted append and is dropped; any other malformed line raises.
    An object whose keys are ``make.__slots__`` in order, as a record's are
    (see ``harness._Record``), is passed by position, which builds the same
    record without matching keywords.
    """
    fields = getattr(make, "__slots__", None)
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = decode(line.decode("utf-8"))
            except ValueError:
                if torn_tail and not line.endswith(b"\n"):
                    break
                raise
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{number}: expected a JSON object, got {type(record).__name__}")
            if make is None:
                yield record
                continue
            try:
                if fields is not None and tuple(record) == fields:
                    item = make(*record.values())
                else:
                    item = make(**record)
            except TypeError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
            yield item


def end_on_line_boundary(path: str) -> None:
    """Cut a torn last line, or end a whole one, so appends start a line.
    Only the last line is read, backwards from the end in 64 KiB steps."""
    with open(path, "rb+") as fh:
        end = start = fh.seek(0, os.SEEK_END)
        tail = b""
        while start > 0 and b"\n" not in tail:
            step = min(start, 1 << 16)
            start -= step
            fh.seek(start)
            tail = fh.read(step) + tail
        last = tail[tail.rfind(b"\n") + 1:]
        if last:
            try:
                json.loads(last)
                fh.seek(end)
                fh.write(b"\n")
            except ValueError:
                fh.truncate(end - len(last))


def load_jsonl(path: str) -> list[Problem]:
    return read_jsonl(path, Problem)


def pair_by_id(
    originals: list[Problem], mutants: list[Problem]
) -> list[tuple[Problem, Problem]]:
    """Each original with the mutant of its id, in the originals' order; a
    ``ValueError`` unless the ids are unique and the same in both lists."""
    for dataset in (originals, mutants):
        repeated = [i for i, n in collections.Counter(p.id for p in dataset).items() if n > 1]
        if repeated:
            raise ValueError(f"problem id {repeated[0]!r} appears more than once")
    by_id = {p.id: p for p in mutants}
    for dataset, name, ids, other in ((originals, "originals", by_id, "mutants"),
                                      (mutants, "mutants", {p.id for p in originals},
                                       "originals")):
        unmatched = next((p.id for p in dataset if p.id not in ids), None)
        if unmatched is not None:
            raise ValueError(f"datasets are not in one-to-one correspondence: problem id "
                             f"{unmatched!r} is in the {name} but not in the {other}")
    return [(p, by_id[p.id]) for p in originals]
