"""Execution-prediction and execution-choice experiment harness.

Prompt templates carry ``@{placeholder}@`` slots and are otherwise committed
verbatim; golden tests guard against drift.  Answers are extracted from the
last ``[ANSWER]...[/ANSWER]`` span (prediction) or the last parseable JSON
object (choice); the right-hand side of the assertion must be a pure literal
or the sample is judged unparsed.  Judgments are structural with strict
typing, so a prediction is "correct" only against its own program's ground
truth and "reverted" only against the paired program's.

Both experiments run through one runner, ``_run``, as tables of tasks: a
prediction task is one variant of a pair with its n samples, a choice task
one presentation order of a pair with one sample.
"""

from __future__ import annotations

import ast
import json
import re

from .llm_client import Transcript, TransportError
from .problems import (
    Problem,
    pair_by_id,
    read_jsonl,
    split_json,
)
from .values import Value, canonical_repr, is_boolean_output, parse_literal, values_equal

PREDICTION_ZERO_SHOT = """\
You are given a Python program and an assertion containing an input to a function. Replace the ?? in the assertion with a literal (no unsimplified expressions, no function calls) representing the function's return value for the given input. Execute the program exactly as written, even if it is incorrect or incomplete. For your final answer, provide the full assertion in [ANSWER] and [/ANSWER] tags.

[PYTHON]
@{program}@
assert @{function_name}@(@{input}@) == ??
[/PYTHON]
"""

PREDICTION_ONE_SHOT = """\
You are given a Python program and an assertion containing an input to a function. Replace the ?? in the assertion with a literal (no unsimplified expressions, no function calls) representing the function's return value for the given input. Execute the program exactly as written, even if it is incorrect or incomplete. Execute the program step by step before arriving at an answer, and provide the full assertion with the function output in [ANSWER] and [/ANSWER] tags, following the example.

[PYTHON]
def performOperation(s):
    s = s + s
    return "b" + s + "a"
assert performOperation(s = "hi") == ??
[/PYTHON]
[THOUGHT]
Let's execute the code step by step:

1. The function performOperation is defined, which takes a single argument s.
2. The function is called with the argument "hi", so within the function, s is initially "hi".
3. Inside the function, s is concatenated with itself, so s becomes "hihi".
4. The function then returns a new string that starts with "b", followed by the value of s (which is now "hihi"), and ends with "a".
5. The return value of the function is therefore "bhihia".
[/THOUGHT]
[ANSWER]
assert performOperation(s = "hi") == "bhihia"
[/ANSWER]

[PYTHON]
@{program}@
assert @{function_name}@(@{input}@) == ??
[/PYTHON]
"""

CHOICE_ZERO_SHOT = """\
You are given two Python programs below and an assertion containing an input to a function. First, choose either program, whichever one you are more confident in reasoning about. Then, replace the ?? in the assertion with a literal (no unsimplified expressions, no function calls) representing the function's return value for the given input on your chosen program. Execute the program exactly as written, even if it is incorrect or incomplete. For your final answer, output the letter of your chosen program (A or B) and the full assertion in the following json format:
{
    "chosen_program": chosen_program_letter,
    "assertion": full_assertion
}

[PROGRAM_A]
@{program_a}@
[/PROGRAM_A]
[PROGRAM_B]
@{program_b}@
[/PROGRAM_B]
[ASSERTION]
assert @{function_name}@(@{input}@) == ??
[/ASSERTION]
"""

CHOICE_ONE_SHOT = """\
You are given two Python programs below and an assertion containing an input to a function. First, choose either program, whichever one you are more confident in reasoning about. Then, replace the ?? in the assertion with a literal (no unsimplified expressions, no function calls) representing the function's return value for the given input on your chosen program. Execute the program exactly as written, even if it is incorrect or incomplete. Execute the program step by step before arriving at an answer, then output the letter of your chosen program (A or B) and the full assertion in the following json format:
{
    "chosen_program": chosen_program_letter,
    "assertion": full_assertion
}

# Example
[PROGRAM_A]
def performOperation(s):
    first = s[0].upper()
    rest = s[1:].upper()
    return first + rest
[/PROGRAM_A]
[PROGRAM_B]
def performOperation(s):
    first = s[0].upper()
    rest = s[1:].lower()
    return first + rest
[/PROGRAM_B]
[ASSERTION]
assert performOperation(s = 'hELLO') == ??
[/ASSERTION]
[THOUGHT]
First, let's figure out which program I am more confident in reasoning about.

Looking at programs A and B, the difference is in the expression for rest. Program A defines rest as s[1:].upper() while program B defines rest as s[1:].lower(). Program B looks similar to how one might implement the capitalize() function, so I will choose program B as I am more confident in reasoning about this program behavior. 

Now, let's execute the code step by step:

1. The function performOperation is defined, which takes a single argument s.
2. The function is called with the argument 'hELLO', so within the function, s is initially 'hELLO'.
3. The variable first is defined as the upper case of the first character of s, which is 'H'.
4. The variable rest is defined as the lower case of s[1:], which is 'ello'.
4. The function returns first ('H') concatenated with rest ('ello').
5. The return value of the function is therefore 'Hello'.
[/THOUGHT]
{
    "chosen_program": "B",
    "assertion": "assert performOperation(s = 'hELLO') == 'Hello'"
}

# Question
[PROGRAM_A]
@{program_a}@
[/PROGRAM_A]
[PROGRAM_B]
@{program_b}@
[/PROGRAM_B]
[ASSERTION]
assert @{function_name}@(@{input}@) == ??
[/ASSERTION]
"""

MODES = ("zero_shot", "one_shot")

# committed digests guard against accidental template edits at run time
TEMPLATE_SHA256 = {
    "PREDICTION_ZERO_SHOT": "dd955d8a008cc93bc68839b18b45ab584e09e660069ad79288a2427c9d49e80c",
    "PREDICTION_ONE_SHOT": "5d05bba6ef76a51d6a0f9fcae71d579df1cfada3ece03527b173edd6a727e4a0",
    "CHOICE_ZERO_SHOT": "a3f8c59361a76d03b8005ad6739863d694bd9c996e4ffc68d0f7d87eda95600e",
    "CHOICE_ONE_SHOT": "7cda0100aa5c35e22c806323081f029576fc5ef7cbf54cbc088ac0dce6292948",
}


def verify_templates() -> list[str]:
    """Names of prompt templates whose text no longer matches its digest."""
    import hashlib

    mismatched = []
    for name, expected in TEMPLATE_SHA256.items():
        digest = hashlib.sha256(globals()[name].encode("utf-8")).hexdigest()
        if digest != expected:
            mismatched.append(name)
    return mismatched


def build_prediction_prompt(problem: Problem, mode: str = "zero_shot") -> str:
    template = PREDICTION_ZERO_SHOT if mode == "zero_shot" else PREDICTION_ONE_SHOT
    return (
        template.replace("@{program}@", problem.source)
        .replace("@{function_name}@", problem.function_name)
        .replace("@{input}@", problem.input)
    )


def build_choice_prompt(
    original: Problem, mutant: Problem, order: str, mode: str = "zero_shot"
) -> str:
    """order: "original_first" puts the original as program A."""
    if order == "original_first":
        program_a, program_b = original.source, mutant.source
    elif order == "mutated_first":
        program_a, program_b = mutant.source, original.source
    else:
        raise ValueError(f"unknown order {order!r}")
    template = CHOICE_ZERO_SHOT if mode == "zero_shot" else CHOICE_ONE_SHOT
    return (
        template.replace("@{program_a}@", program_a)
        .replace("@{program_b}@", program_b)
        .replace("@{function_name}@", original.function_name)
        .replace("@{input}@", original.input)
    )


# ---------------------------------------------------------------------------
# Extraction


class Extracted:
    __slots__ = ("value", "text")

    def __init__(self, value: Value, text: str):
        self.value = value
        self.text = text  # canonical form

    def __eq__(self, other):
        if other.__class__ is not Extracted:
            return NotImplemented
        return (self.value, self.text) == (other.value, other.text)


# compiled by re on its first use (with re.DOTALL), not at import
_ANSWER_RE = r"\[ANSWER\](.*?)\[/ANSWER\]"


def _literal_from_assertion(text: str) -> Extracted | None:
    """Parse ``assert name(args) == <literal>``; None when not that shape."""
    try:
        module = ast.parse(text.strip())
    except (SyntaxError, ValueError, MemoryError, RecursionError):
        return None
    asserts = [s for s in module.body if isinstance(s, ast.Assert)]
    if not asserts:
        return None
    test = asserts[-1].test
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    if not isinstance(test.ops[0], ast.Eq) or not isinstance(test.left, ast.Call):
        return None
    try:
        value = ast.literal_eval(test.comparators[0])
    except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError):
        return None
    try:
        return Extracted(value, canonical_repr(value))
    except TypeError:
        return None


def extract_prediction(response: str) -> Extracted | None:
    """Literal from the last [ANSWER] span; None when unparsed."""
    spans = re.findall(_ANSWER_RE, response, re.DOTALL)
    if not spans:
        return None
    return _literal_from_assertion(spans[-1])


class ChoiceExtraction:
    __slots__ = ("letter", "literal")

    def __init__(self, letter: str | None, literal: Extracted | None):
        self.letter = letter  # "A" | "B" | None when the choice is unreadable
        self.literal = literal

    def __eq__(self, other):
        if other.__class__ is not ChoiceExtraction:
            return NotImplemented
        return (self.letter, self.literal) == (other.letter, other.literal)


_DECODER = json.JSONDecoder()
_FIRST_SLICE = 256
# A failure that the end of a slice caused is reported at most 8 characters
# before it (a cut "-Infinity"), or at the start of an unterminated string.
_CUT_MARGIN = 16


def _json_value_at(text: str, start: int):
    """The JSON value that ``raw_decode(text, start)`` returns, or None
    where it raises ``JSONDecodeError``, or ``RecursionError`` on a value
    nested too deeply to decode.

    It decodes slices from ``start`` that double until the outcome cannot
    depend on where the slice ends, so its work grows with what the
    decoder reads and not with ``start``: a ``JSONDecodeError`` counts the
    newlines before its position in the string it was given.  A value
    read from a slice is the one the whole text holds there.
    """
    width = _FIRST_SLICE
    while True:
        try:
            return _DECODER.raw_decode(text[start:start + width])[0]
        except RecursionError:
            return None
        except json.JSONDecodeError as exc:
            if start + width >= len(text) or (
                    exc.pos < width - _CUT_MARGIN
                    and not exc.msg.startswith("Unterminated string")):
                return None
        width *= 2


def _json_candidates(text: str):
    """Every JSON object that starts at a ``{`` of ``text``, in order."""
    start = text.find("{")
    while start != -1:
        obj = _json_value_at(text, start)
        if isinstance(obj, dict):
            yield obj
        start = text.find("{", start + 1)


def extract_choice(response: str) -> ChoiceExtraction:
    """Chosen-letter and literal from the last parseable JSON object."""
    chosen_obj = None
    for obj in _json_candidates(response):
        if "chosen_program" in obj:
            chosen_obj = obj
    if chosen_obj is None:
        return ChoiceExtraction(None, None)
    letter = str(chosen_obj.get("chosen_program", "")).strip().strip('"').upper()
    if letter not in ("A", "B"):
        return ChoiceExtraction(None, None)
    assertion = chosen_obj.get("assertion")
    literal = _literal_from_assertion(assertion) if isinstance(assertion, str) else None
    return ChoiceExtraction(letter, literal)


# ---------------------------------------------------------------------------
# Judgment and records


def judge(extracted: Extracted | None, own: Value, other: Value) -> str:
    """Judge an answer against the parsed ground truths of the program it
    answers for (``own``) and of the paired program (``other``)."""
    if extracted is None:
        return "unparsed"
    if values_equal(extracted.value, own):
        return "correct"
    if values_equal(extracted.value, other):
        return "reverted"
    return "other"


class _Record:
    """A record of one sample: its fields are its ``__slots__``, in the order
    its constructor takes them (``iter_jsonl`` builds it by position).  Two
    records are equal when they are of one class and their fields are."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class PredictionRecord(_Record):
    __slots__ = ("problem_id", "variant", "sample_index", "response", "extracted",
                 "judgment", "loc", "output_is_bool", "error")

    def __init__(self, problem_id: str, variant: str, sample_index: int, response: str,
                 extracted: str | None, judgment: str, loc: int, output_is_bool: bool,
                 error: str | None = None):
        self.problem_id = problem_id
        self.variant = variant  # original | mutated
        self.sample_index = sample_index
        self.response = response
        self.extracted = extracted
        self.judgment = judgment  # correct | reverted | other | unparsed
        self.loc = loc
        self.output_is_bool = output_is_bool
        self.error = error

    def to_json(self) -> dict:
        return {"problem_id": self.problem_id, "variant": self.variant,
                "sample_index": self.sample_index, "response": self.response,
                "extracted": self.extracted, "judgment": self.judgment,
                "loc": self.loc, "output_is_bool": self.output_is_bool,
                "error": self.error}


class ChoiceRecord(_Record):
    __slots__ = ("problem_id", "run_index", "order", "response", "chosen", "extracted",
                 "judgment", "loc", "output_is_bool", "error")

    def __init__(self, problem_id: str, run_index: int, order: str, response: str,
                 chosen: str | None, extracted: str | None, judgment: str, loc: int,
                 output_is_bool: bool, error: str | None = None):
        self.problem_id = problem_id
        self.run_index = run_index  # 1 or 2
        self.order = order  # original_first | mutated_first
        self.response = response
        self.chosen = chosen  # original | mutated | None (unreadable choice)
        self.extracted = extracted
        self.judgment = judgment
        self.loc = loc
        self.output_is_bool = output_is_bool
        self.error = error

    def to_json(self) -> dict:
        return {"problem_id": self.problem_id, "run_index": self.run_index,
                "order": self.order, "response": self.response, "chosen": self.chosen,
                "extracted": self.extracted, "judgment": self.judgment,
                "loc": self.loc, "output_is_bool": self.output_is_bool,
                "error": self.error}


def load_prediction_records(path: str) -> list[PredictionRecord]:
    return _load_records(path, PredictionRecord)


def load_choice_records(path: str) -> list[ChoiceRecord]:
    return _load_records(path, ChoiceRecord)


def _load_records(path: str, cls):
    """Records of a JSONL file; the torn tail of an interrupted append is
    dropped (see ``read_jsonl``)."""
    return read_jsonl(path, cls, torn_tail=True)


def _pair_is_boolean(original: Problem, mutant: Problem) -> bool:
    return is_boolean_output(original.output) or is_boolean_output(mutant.output)


def run_prediction(
    originals: list[Problem],
    mutants: list[Problem],
    model,
    n: int = 5,
    mode: str | None = None,
    out_path: str | None = None,
    resume: list[PredictionRecord] | None = None,
) -> list[PredictionRecord]:
    """Query each variant of each pair in separate passes, n samples each.

    Existing records (``resume``) are kept and only missing samples are
    requested, so an interrupted run can be completed incrementally.
    """
    mode = mode or getattr(model, "default_mode", "zero_shot")

    def task(problem: Problem, variant: str, other: Problem, is_bool: bool):
        own, paired = parse_literal(problem.output), parse_literal(other.output)

        def read(text: str) -> tuple:
            extracted = extract_prediction(text)
            return extracted.text if extracted else None, judge(extracted, own, paired)

        def record(index: int, text: str, fields: tuple, error: str | None):
            return PredictionRecord(problem.id, variant, index, text, *fields, problem.loc,
                                    is_bool, error)
        return build_prediction_prompt(problem, mode), read, record

    def tasks(pairs):
        for original, mutant in pairs:
            is_bool = _pair_is_boolean(original, mutant)
            yield (original.id, "original"), n, (original, "original", mutant, is_bool)
            yield (mutant.id, "mutated"), n, (mutant, "mutated", original, is_bool)

    return _run(tasks(pair_by_id(originals, mutants)), task,
                lambda r: (r.problem_id, r.variant), model, out_path, resume)


def run_choice(
    originals: list[Problem],
    mutants: list[Problem],
    model,
    mode: str | None = None,
    out_path: str | None = None,
    resume: list[ChoiceRecord] | None = None,
) -> list[ChoiceRecord]:
    """Two runs per pair with the presentation order swapped."""
    mode = mode or getattr(model, "default_mode", "zero_shot")

    def task(original: Problem, mutant: Problem, is_bool: bool, run_index: int, order: str):
        truth = {"original": parse_literal(original.output),
                 "mutated": parse_literal(mutant.output)}
        a_is_original = order == "original_first"

        def read(text: str) -> tuple:
            extraction = extract_choice(text)
            if extraction.letter is None:
                return None, None, "unparsed"
            chosen, other = (("original", "mutated")
                             if (extraction.letter == "A") == a_is_original
                             else ("mutated", "original"))
            literal = extraction.literal
            return (chosen, literal.text if literal else None,
                    judge(literal, truth[chosen], truth[other]))

        def record(index: int, text: str, fields: tuple, error: str | None):
            return ChoiceRecord(original.id, run_index, order, text, *fields, original.loc,
                                is_bool, error)
        return build_choice_prompt(original, mutant, order, mode), read, record

    def tasks(pairs):
        for original, mutant in pairs:
            is_bool = _pair_is_boolean(original, mutant)
            for run_index, order in ((1, "original_first"), (2, "mutated_first")):
                yield (original.id, run_index), 1, (original, mutant, is_bool, run_index, order)

    return _run(tasks(pair_by_id(originals, mutants)), task,
                lambda r: (r.problem_id, r.run_index), model, out_path, resume)


def _run(tasks, task, key, model, out_path: str | None, resume: list | None) -> list:
    """Run the tasks of one experiment and return ``resume``'s records and
    the new ones.  ``tasks`` yields, in task order, each task's resume key
    (what ``key`` gives each of its records), the samples it wants and its
    arguments; ``task(*arguments)`` gives the task's prompt, a function of a
    response text to the record fields read from it, and a function of
    ``(index, text, fields, error)`` to the record.  Only samples that
    ``resume`` does not hold are requested; a failed request gives records
    with its ``error`` and empty responses."""
    # the directory is made before the first request, so no answer is paid
    # for and then lost to a missing directory
    out = Transcript(out_path)
    results = list(resume or [])
    held: dict = {}
    for record in results:
        record_key = key(record)
        held[record_key] = held.get(record_key, 0) + 1

    # a replay answers each prompt from its recorded responses in order, so
    # it first passes over those of the samples already held
    skip = getattr(model, "skip", None)
    todo = []
    for task_key, n, arguments in tasks:
        have = held.get(task_key, 0)
        if have and skip is not None:
            skip(task(*arguments)[0], have)
        if have < n:
            todo.append((have, n - have, arguments))

    def run_task(item) -> tuple[list, list[str]]:
        start, count, arguments = item
        prompt, read, record = task(*arguments)
        error = None
        try:
            texts = [resp.text for resp in model.complete(prompt, count)]
        except TransportError as exc:
            texts, error = [""] * count, str(exc)
        # a text that repeats among the samples, as a mock's or a replay's
        # does, is read and encoded once: its line is split_json's text
        # around the sample_index, joined by each record's index (an int,
        # whose JSON text is its str); a choice record has no sample_index,
        # and its line is one part
        readings: dict[str, tuple[tuple, list[str]]] = {}
        records, lines = [], []
        for index, text in enumerate(texts, start):
            fields, parts = readings.get(text) or (read(text), None)
            records.append(record(index, text, fields, error))
            if parts is None:
                parts = split_json(records[-1].to_json(), "sample_index")
                parts[-1] += "\n"
                readings[text] = fields, parts
            lines.append(str(index).join(parts))
        return records, lines

    _dispatch(todo, run_task, getattr(model, "parallelism", 1), results, out)
    return results


def _dispatch(tasks, fn, workers: int, results: list, out: Transcript) -> None:
    """Run ``fn`` on every task, at most ``workers`` at once; it returns the
    task's records and their lines.  Add the records to ``results`` and the
    lines, in one append, to ``out``, in task order, so the file's bytes do
    not depend on which request finishes first."""

    def keep(records: list, lines: list[str]) -> None:
        results.extend(records)
        out.write(len(records), lines)

    if workers <= 1:
        for task in tasks:
            keep(*fn(task))
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for records, lines in pool.map(fn, tasks):
            keep(records, lines)
