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
import os
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

from .llm_client import TransportError
from .problems import Problem, pair_by_id
from .values import Value, canonical_repr, is_boolean_output, values_equal

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


@dataclass(frozen=True)
class Extracted:
    value: Value
    text: str  # canonical form


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


@dataclass(frozen=True)
class ChoiceExtraction:
    letter: str | None  # "A" | "B" | None when the choice is unreadable
    literal: Extracted | None


def _json_candidates(text: str):
    decoder = json.JSONDecoder()
    for start in range(len(text)):
        if text[start] != "{":
            continue
        try:
            obj, _ = decoder.raw_decode(text[start:])
        except json.JSONDecodeError:
            continue
        if isinstance(obj, dict):
            yield obj


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


def judge(extracted: Extracted | None, own_output: str, other_output: str) -> str:
    if extracted is None:
        return "unparsed"
    if values_equal(extracted.value, _parse_truth(own_output)):
        return "correct"
    if values_equal(extracted.value, _parse_truth(other_output)):
        return "reverted"
    return "other"


def _parse_truth(text: str) -> Value:
    return ast.literal_eval(text)


@dataclass(frozen=True)
class PredictionRecord:
    problem_id: str
    variant: str  # original | mutated
    sample_index: int
    response: str
    extracted: str | None
    judgment: str  # correct | reverted | other | unparsed
    loc: int
    output_is_bool: bool
    error: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ChoiceRecord:
    problem_id: str
    run_index: int  # 1 or 2
    order: str  # original_first | mutated_first
    response: str
    chosen: str | None  # original | mutated | None (unreadable choice)
    extracted: str | None
    judgment: str
    loc: int
    output_is_bool: bool
    error: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


class _RecordSink:
    def __init__(self, path: str | None):
        self.path = path
        self.lock = threading.Lock()
        self.records: list = []
        if path and os.path.exists(path):
            _end_on_line_boundary(path)

    def append(self, record) -> None:
        with self.lock:
            self.records.append(record)
            if self.path:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record.to_json(), ensure_ascii=False) + "\n")


def load_prediction_records(path: str) -> list[PredictionRecord]:
    return _load_records(path, PredictionRecord)


def load_choice_records(path: str) -> list[ChoiceRecord]:
    return _load_records(path, ChoiceRecord)


def _load_records(path: str, cls):
    """Records of a JSONL file.  A last line that lacks its newline and does
    not parse is the torn tail of an interrupted append and is dropped; any
    other malformed line raises."""
    out = []
    with open(path, "rb") as fh:
        for line in fh:
            if line.strip():
                try:
                    out.append(cls(**json.loads(line.decode("utf-8"))))
                except ValueError:
                    if line.endswith(b"\n"):
                        raise
    return out


def _end_on_line_boundary(path: str) -> None:
    """Cut a torn last line, or end a whole one, so appends start a line."""
    with open(path, "rb+") as fh:
        data = fh.read()
        start = data.rfind(b"\n") + 1
        if start < len(data):
            try:
                json.loads(data[start:])
                fh.write(b"\n")
            except ValueError:
                fh.truncate(start)


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
    sink = _RecordSink(out_path)
    have: dict[tuple[str, str], int] = {}
    for record in resume or []:
        sink.records.append(record)
        key = (record.problem_id, record.variant)
        have[key] = have.get(key, 0) + 1

    tasks = []
    for original, mutant in pairs:
        is_bool = _pair_is_boolean(original, mutant)
        for variant, problem, other in (
            ("original", original, mutant),
            ("mutated", mutant, original),
        ):
            missing = n - have.get((problem.id, variant), 0)
            if missing > 0:
                tasks.append((problem, variant, other, is_bool, n - missing, missing))

    def run_task(task):
        problem, variant, other, is_bool, start_index, count = task
        prompt = build_prediction_prompt(problem, mode)
        try:
            responses = model.complete(prompt, count)
            for i, resp in enumerate(responses):
                extracted = extract_prediction(resp.text)
                sink.append(PredictionRecord(
                    problem_id=problem.id,
                    variant=variant,
                    sample_index=start_index + i,
                    response=resp.text,
                    extracted=extracted.text if extracted else None,
                    judgment=judge(extracted, problem.output, other.output),
                    loc=problem.loc,
                    output_is_bool=is_bool,
                ))
        except TransportError as exc:
            for i in range(count):
                sink.append(PredictionRecord(
                    problem_id=problem.id,
                    variant=variant,
                    sample_index=start_index + i,
                    response="",
                    extracted=None,
                    judgment="unparsed",
                    loc=problem.loc,
                    output_is_bool=is_bool,
                    error=str(exc),
                ))

    _dispatch(tasks, run_task, getattr(model, "parallelism", 1))
    return sink.records


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
    sink = _RecordSink(out_path)
    done = set()
    for record in resume or []:
        sink.records.append(record)
        done.add((record.problem_id, record.run_index))

    tasks = []
    for original, mutant in pairs:
        for run_index, order in ((1, "original_first"), (2, "mutated_first")):
            if (original.id, run_index) not in done:
                tasks.append((original, mutant, run_index, order))

    def run_task(task):
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
            judgment = judge(extraction.literal, own.output, other.output)
            extracted = extraction.literal.text if extraction.literal else None
        sink.append(ChoiceRecord(
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
        ))

    _dispatch(tasks, run_task, getattr(model, "parallelism", 1))
    return sink.records


def _dispatch(tasks, fn, workers: int):
    if workers <= 1:
        for task in tasks:
            fn(task)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fn, tasks))
