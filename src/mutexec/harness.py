"""Execution-prediction and execution-choice experiment harness.

Prompt templates carry ``@{placeholder}@`` slots and are otherwise committed
verbatim; golden tests guard against drift.  Answers are extracted from the
last ``[ANSWER]...[/ANSWER]`` span (prediction) or the last parseable JSON
object (choice); the right-hand side of the assertion must be a pure literal
or the sample is judged unparsed.  Judgments are structural with strict
typing, so a prediction is "correct" only against its own program's ground
truth and "reverted" only against the paired program's.
"""

from __future__ import annotations

import ast
import json
import re

from .llm_client import Transcript, TransportError
from .problems import (
    Problem,
    encode_json,
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


_ANSWER_RE = re.compile(r"\[ANSWER\](.*?)\[/ANSWER\]", re.DOTALL)


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
    spans = _ANSWER_RE.findall(response)
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
    pairs = pair_by_id(originals, mutants)
    # the directory is made before the first request, so no answer is paid
    # for and then lost to a missing directory
    out = Transcript(out_path)
    results: list[PredictionRecord] = list(resume or [])
    have: dict[tuple[str, str], int] = {}
    for record in results:
        key = (record.problem_id, record.variant)
        have[key] = have.get(key, 0) + 1

    # a replay answers each prompt from its recorded responses in order, so
    # it first passes over those of the samples already held
    skip = getattr(model, "skip", None)
    tasks = []
    for original, mutant in pairs:
        is_bool = _pair_is_boolean(original, mutant)
        for variant, problem, other in (
            ("original", original, mutant),
            ("mutated", mutant, original),
        ):
            held = have.get((problem.id, variant), 0)
            if held and skip is not None:
                skip(build_prediction_prompt(problem, mode), held)
            if held < n:
                tasks.append((problem, variant, other, is_bool, held, n - held))

    def run_task(task) -> tuple[list[PredictionRecord], list[str]]:
        problem, variant, other, is_bool, start_index, count = task
        prompt = build_prediction_prompt(problem, mode)
        error = None
        try:
            texts = [resp.text for resp in model.complete(prompt, count)]
        except TransportError as exc:
            texts, error = [""] * count, str(exc)
        own, paired = parse_literal(problem.output), parse_literal(other.output)
        # a record's line is split_json's text around the fields that differ
        # between the task's records, filled in: a text that repeats among
        # the n samples, as a mock's or a replay's does, is extracted, judged
        # and encoded once, and each record adds only its sample_index (an
        # int, whose JSON text is its str)
        before, after_index, after_response, after_extracted, end = split_json(
            PredictionRecord(problem.id, variant, start_index, "", None, "", problem.loc,
                             is_bool, error).to_json(),
            "sample_index", "response", "extracted", "judgment")
        readings: dict[str, tuple[str | None, str, str]] = {}
        records, lines = [], []
        for index, text in enumerate(texts, start_index):
            reading = readings.get(text)
            if reading is None:
                extracted = extract_prediction(text)
                extracted_text = extracted.text if extracted else None
                judgment = judge(extracted, own, paired)
                reading = readings[text] = (extracted_text, judgment, "".join((
                    after_index, encode_json(text), after_response,
                    encode_json(extracted_text), after_extracted, encode_json(judgment),
                    end, "\n")))
            records.append(PredictionRecord(
                problem_id=problem.id,
                variant=variant,
                sample_index=index,
                response=text,
                extracted=reading[0],
                judgment=reading[1],
                loc=problem.loc,
                output_is_bool=is_bool,
                error=error,
            ))
            lines.append(before + str(index) + reading[2])
        return records, lines

    _dispatch(tasks, run_task, getattr(model, "parallelism", 1), results, out)
    return results


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
    pairs = pair_by_id(originals, mutants)
    out = Transcript(out_path)  # see run_prediction
    results: list[ChoiceRecord] = list(resume or [])
    done = set()
    for record in results:
        done.add((record.problem_id, record.run_index))

    skip = getattr(model, "skip", None)  # see run_prediction
    tasks = []
    for original, mutant in pairs:
        for run_index, order in ((1, "original_first"), (2, "mutated_first")):
            if (original.id, run_index) not in done:
                tasks.append((original, mutant, run_index, order))
            elif skip is not None:
                skip(build_choice_prompt(original, mutant, order, mode), 1)

    def run_task(task) -> tuple[list[ChoiceRecord], list[str]]:
        original, mutant, run_index, order = task
        is_bool = _pair_is_boolean(original, mutant)
        prompt = build_choice_prompt(original, mutant, order, mode)
        error = None
        try:
            resp = model.complete(prompt, 1)[0]
            text = resp.text
        except TransportError as exc:
            text, error = "", str(exc)
        extraction = extract_choice(text)
        if extraction.letter is None:
            chosen = None
            judgment = "unparsed"
            extracted = None
        else:
            a_is_original = order == "original_first"
            chosen = (
                "original" if (extraction.letter == "A") == a_is_original else "mutated"
            )
            own, other = (
                (original, mutant) if chosen == "original" else (mutant, original)
            )
            judgment = judge(extraction.literal, parse_literal(own.output),
                             parse_literal(other.output))
            extracted = extraction.literal.text if extraction.literal else None
        record = ChoiceRecord(
            problem_id=original.id,
            run_index=run_index,
            order=order,
            response=text,
            chosen=chosen,
            extracted=extracted,
            judgment=judgment,
            loc=original.loc,
            output_is_bool=is_bool,
            error=error,
        )
        return [record], [encode_json(record.to_json()) + "\n"]

    _dispatch(tasks, run_task, getattr(model, "parallelism", 1), results, out)
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
