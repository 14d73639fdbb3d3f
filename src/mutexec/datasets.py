"""Dataset builders: sampled list programs, LLM-generated list programs, and
ingestion of externally collected problems.

The sampled dataset draws 1000 valid programs for each (signature, depth)
combination, then per signature picks 10 programs uniformly from each 4-wide
lines-of-code bin between 4 and 24, yielding 100 programs with 3 inputs each
(300 problems).  The LLM dataset runs a brainstorm / code-generation /
input-generation pipeline against a chat model with fixed sorting/search
functions appended.  External problems, the LLM dataset's among them, get
their ground truth from one path, ``ingest_external``: two runs of each
input, with character-length, determinism, and step-count filters.  The LLM
dataset uses it with no length window and no step budget, refuses floats in
an input before it runs and in an output after, and re-asks for the inputs
that ingestion or the float rules refuse.
"""

from __future__ import annotations

import importlib.resources
import json
import os
import random
import re
from dataclasses import replace

from .dsl import to_sexpr
from .forking import Child, may_fork
from .grammar import SamplerConfig, compile_cfg, sample_valid_program
from .problems import LOC_BINS, Problem
from .transpile import translate  # noqa: F401  bench/tracing.py wraps datasets.translate
from .values import canonical_repr, contains_float, format_args, parse_args


class InsufficientBinPopulation(RuntimeError):
    def __init__(self, arity: int, bin_range: tuple[int, int], have: int, need: int):
        self.arity = arity
        self.bin_range = bin_range
        super().__init__(
            f"arity {arity}: LOC bin {bin_range} has {have} programs, need {need}"
        )


class DslListConfig:
    """One grammar per (arity, depth) in ``arities`` x ``depths``, sampled
    ``programs_per_combo`` times with ``sampler``; ``per_bin`` programs per
    lines-of-code bin in ``bins`` are kept for each arity."""

    __slots__ = ("seed", "arities", "depths", "programs_per_combo", "per_bin", "bins",
                 "sampler")

    def __init__(self, seed: int = 0, arities: tuple[int, ...] = (1, 2),
                 depths: tuple[int, ...] = (4, 5), programs_per_combo: int = 1000,
                 per_bin: int = 10, bins: tuple[tuple[int, int], ...] = LOC_BINS,
                 sampler: SamplerConfig | None = None):
        self.seed = seed
        self.arities = arities
        self.depths = depths
        self.programs_per_combo = programs_per_combo
        self.per_bin = per_bin
        self.bins = bins
        self.sampler = SamplerConfig() if sampler is None else sampler


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _sample_combo(config: DslListConfig, arity: int, depth: int) -> list[tuple]:
    """``programs_per_combo`` valid programs of one (arity, depth) grammar,
    each as ``(dsl_text, depth, source, loc, inputs, outputs)``: plain data,
    so that a forked lane sends little and the parent unpickles no terms."""
    cfg = compile_cfg(arity, depth)
    rng = random.Random(f"{config.seed}:dsl:{arity}:{depth}")
    sampled = []
    for _ in range(config.programs_per_combo):
        sp = sample_valid_program(cfg, config.sampler, rng=rng)
        sampled.append((to_sexpr(sp.term), depth, sp.program.source, sp.program.loc,
                        sp.inputs, sp.outputs))
    return sampled


def _sample_combos(config: DslListConfig, combos: list[tuple[int, int]]) -> dict:
    """``_sample_combo`` for each (arity, depth) in ``combos``, on one lane
    per usable CPU: this process is one lane and each other lane is a
    ``forking.Child`` that sends its results back on its stdout pipe.  Every
    combo has its own RNG, so the results do not depend on the lanes.

    Where this process may not fork (``may_fork``), everything stays in
    this process."""
    lanes = min(_usable_cpus(), len(combos))
    if lanes <= 1 or not may_fork():
        return {combo: _sample_combo(config, *combo) for combo in combos}

    import pickle
    from functools import partial

    # snake order of (arity, depth), largest first: for the dataset's four
    # combos that deals {a2d5, a1d4} and {a2d4, a1d5}, the split that
    # longest-first dealing by measured cost gives too (in process, seed 3,
    # 220 programs each, CPU time, best of 16: a2d5 0.15 s, a1d5 0.12 s,
    # a2d4 0.06 s, a1d4 0.05 s)
    dealt: list[list[tuple[int, int]]] = [[] for _ in range(lanes)]
    for index, combo in enumerate(sorted(combos, reverse=True)):
        turn, lane = divmod(index, lanes)
        dealt[lane if turn % 2 == 0 else lanes - 1 - lane].append(combo)

    children: list[tuple[Child, list[tuple[int, int]]]] = []
    try:
        for lane_combos in dealt[1:]:
            children.append((Child(partial(_sample_lane, config, lane_combos)), lane_combos))
        results = {combo: _sample_combo(config, *combo) for combo in dealt[0]}
        for child, lane_combos in children:
            try:
                # unpickled as it arrives, so the whole pickle is never held
                # at once
                payload = pickle.load(child.stdout)
            except (EOFError, pickle.UnpicklingError):
                payload = None  # the lane died; its exit status says how
            code = child.wait()
            if code != 0:
                ended = f"signal {-code}" if code < 0 else f"exit status {code}"
                labels = ", ".join(f"a{a}d{d}" for a, d in lane_combos)
                raise RuntimeError(
                    f"sampling {labels}: child {child.pid} ended with {ended} and no result")
            ok, value = payload
            if not ok:
                raise value
            results.update(value)
        return results
    finally:
        for child, _ in children:
            child.kill()
            child.wait()
            child.stdin.close()
            child.stdout.close()


def _sample_lane(config: DslListConfig, combos) -> None:
    """A forked lane's program: sample ``combos`` and write ``(True,
    results)`` or ``(False, exception)`` to fd 1 as one pickle."""
    import pickle

    try:
        payload = (True, {combo: _sample_combo(config, *combo) for combo in combos})
    except Exception as exc:
        # one the parent could not rebuild arrives as a RuntimeError
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        payload = (False, exc)
    with open(1, "wb") as pipe:
        pipe.write(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))


def build_dsl_list(config: DslListConfig | None = None) -> list[Problem]:
    """Build the sampled-program dataset; byte-identical for a fixed seed,
    whatever the number of CPUs."""
    config = config or DslListConfig()
    sampled = _sample_combos(
        config, [(arity, depth) for arity in config.arities for depth in config.depths])
    problems: list[Problem] = []

    for arity in config.arities:
        pool = [s for depth in config.depths for s in sampled[arity, depth]]
        chosen: list[tuple] = []
        select_rng = random.Random(f"{config.seed}:select:{arity}")
        for bin_range in config.bins:
            lo, hi = bin_range
            population = [s for s in pool if lo <= s[3] < hi]
            if len(population) < config.per_bin:
                raise InsufficientBinPopulation(
                    arity, bin_range, len(population), config.per_bin
                )
            chosen.extend(select_rng.sample(population, config.per_bin))

        for index, (dsl_text, depth, source, loc, inputs, outputs) in enumerate(chosen):
            program_id = f"dsl-{arity}a-{index:03d}"
            for input_index, (args, output) in enumerate(zip(inputs, outputs)):
                problems.append(Problem(
                    id=f"{program_id}-x{input_index}",
                    dataset="dsl-list",
                    source=source,
                    function_name="f",
                    input=format_args(args),
                    output=canonical_repr(output),
                    loc=loc,
                    executor="builtin",
                    program_id=program_id,
                    dsl_text=dsl_text,
                    depth=depth,
                    arity=arity,
                ))
    return problems


# ---------------------------------------------------------------------------
# LLM-generated list dataset


BRAINSTORM_PROMPT = """\
Your task is to brainstorm a list of 100 known / common list functions in Python. These could be standard textbook algorithms or simple utility functions. Some examples are length, reverse, unique, compact, flatten, insert, index, union, tail, permutations, order-by, mean, median, range, argmax.

Each function you come up with must satisfy the following conditions:
- Takes in a list of integers as one of the parameters and returns a list, integer, or boolean after doing some processing on the input.
- Does NOT contain random operations.
- Does NOT involve substantial floating-point operations.
- Does NOT rely on any imports (e.g., numpy or the Python standard library).

Try to have as much variability in the types of operations; for any class or variations of operations, have at most 2-3. Structure your response in the following manner. The name should be a function signature (e.g., length(lst)), and the description should encapsulate the expected behavior of the function.

1. "[name]": "[description]"
2. "[name]": "[description]"
3. "[name]": "[description]"
...
"""

CODEGEN_PROMPT = """\
Your task is to write a Python function `@{function_header}@` that @{function_description}@. You may use built-ins, but limit your usage so the function has enough logic in it; you are not allowed to use numpy. Make the logic in your function as explicit as possible, and make sure that the result returned by your function is deterministic. Do not include comments, and do not output any extra information.
"""

INPUTGEN_INSTRUCTION = """\
You are given a Python function named `@{function_name}@` below, which @{function_description}@. Your goal is to generate 3 simple test inputs for this function that comprehensively test all functionality of the `@{function_name}@` function and produce no errors when executed. Do NOT include any extra information and put each input on a separate line. If the input contains multiple arguments, separate them by commas. Do NOT include floating-point values. Make sure that lists contain only a few elements, but are not empty.\
"""

# the number of inputs INPUTGEN_INSTRUCTION asks for
INPUTS_PER_FUNCTION = 3

INPUTGEN_EXCLUSION_PREFIX = "Do NOT include the following inputs: "

INPUTGEN_EXAMPLE_FUNCTION = "def add(a, b):\n    return a + b"
INPUTGEN_EXAMPLE_NAME = "add"
INPUTGEN_EXAMPLE_DESCRIPTION = "returns the sum of two numbers"
INPUTGEN_EXAMPLE_RESPONSE = "3, 5\n-2, 7\n0, 0"


def render_inputgen_prompt(
    function_name: str,
    function_description: str,
    function_code: str,
    excluded_inputs: list[str] | None = None,
) -> str:
    """One-shot input-generation prompt; exclusions append to the instruction."""

    def request(name: str, description: str, code: str, excluded) -> str:
        instruction = (
            INPUTGEN_INSTRUCTION
            .replace("@{function_name}@", name)
            .replace("@{function_description}@", description)
        )
        if excluded:
            instruction += f" {INPUTGEN_EXCLUSION_PREFIX}{', '.join(excluded)}"
        return f"{instruction}\n\n```python\n{code}\n```"

    example = request(
        INPUTGEN_EXAMPLE_NAME, INPUTGEN_EXAMPLE_DESCRIPTION,
        INPUTGEN_EXAMPLE_FUNCTION, None,
    )
    real = request(function_name, function_description, function_code, excluded_inputs)
    return f"{example}\n{INPUTGEN_EXAMPLE_RESPONSE}\n\n{real}"


def render_codegen_prompt(header: str, description: str) -> str:
    return (
        CODEGEN_PROMPT
        .replace("@{function_header}@", header)
        .replace("@{function_description}@", description)
    )


class GenerationRetriesExhausted(RuntimeError):
    def __init__(self, function: str, reasons: list[str]):
        self.function = function
        super().__init__(f"{function}: could not obtain valid inputs ({reasons[:3]})")


_HEADER_LINE_RE = re.compile(r'^\s*\d+\.\s*"?([^:"]+?\([^)]*\))"?\s*:\s*"?(.*?)"?\s*$')
_CODE_FENCE_RE = re.compile(r"```(?:python)?\n(.*?)```", re.DOTALL)


def parse_brainstorm(text: str) -> list[tuple[str, str]]:
    """Numbered `\"name(args)\": \"description\"` lines -> (header, description)."""
    out = []
    for line in text.splitlines():
        match = _HEADER_LINE_RE.match(line)
        if match:
            out.append((match.group(1).strip(), match.group(2).strip()))
    return out


def strip_code_fences(text: str) -> str:
    match = _CODE_FENCE_RE.search(text)
    return (match.group(1) if match else text).strip()


def fixed_sort_search_headers() -> list[tuple[str, str]]:
    """Ten sorting and two search functions appended after brainstorming."""
    data = (
        importlib.resources.files("mutexec")
        .joinpath("data/sort_search_headers.json")
        .read_text(encoding="utf-8")
    )
    return [(entry["header"], entry["description"]) for entry in json.loads(data)]


def _loc(source: str) -> int:
    return sum(1 for line in source.splitlines() if line.strip())


def build_llm_list(model, executor, max_regenerations: int = 5) -> list[Problem]:
    """Brainstorm, generate code, generate inputs, and take each function's
    problems from ``ingest_external``.

    A function whose inputs are still refused after ``max_regenerations``
    re-asks raises ``GenerationRetriesExhausted``."""
    brainstorm = model.complete(BRAINSTORM_PROMPT, 1)[0].text
    headers = parse_brainstorm(brainstorm)
    headers.extend(fixed_sort_search_headers())

    problems: list[Problem] = []
    for func_index, (header, description) in enumerate(headers):
        name = header.split("(", 1)[0].strip()
        code = strip_code_fences(
            model.complete(render_codegen_prompt(header, description), 1)[0].text
        )
        program_id = f"llm-{func_index:03d}-{name}"
        problems.extend(
            replace(problem, id=f"{program_id}-x{input_index}", dataset="llm-list",
                    program_id=program_id)
            for input_index, problem in enumerate(
                _generate_inputs(model, executor, name, description, code, max_regenerations)))
    return problems


def _parse_input(input_text: str) -> tuple[tuple, str] | None:
    """An input line's argument tuple and canonical text, or None if it does
    not parse or holds a value without canonical text (bytes, complex, inf,
    nan)."""
    try:
        args = parse_args(input_text)
        return args, format_args(args)
    except (ValueError, TypeError):
        return None


def _generate_inputs(model, executor, name, description, code,
                     max_regenerations) -> list[Problem]:
    """The problems ``ingest_external`` makes of ``code`` on the first
    ``INPUTS_PER_FUNCTION`` lines of the model's answer, with no length
    window and no step budget.  A line whose arguments hold a float is
    refused before it runs, and one whose output holds a float after; the
    model is asked again, with the refused lines excluded, until every line
    is kept."""
    config = IngestConfig(0, len(code), None)
    excluded: list[str] = []
    reasons: list[str] = []
    for _ in range(max_regenerations + 1):
        prompt = render_inputgen_prompt(name, description, code, excluded or None)
        text = model.complete(prompt, 1)[0].text
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        lines = lines[:INPUTS_PER_FUNCTION]
        refused: dict[int, str] = {}  # line index -> reason
        for index, line in enumerate(lines):
            parsed = _parse_input(line)
            if parsed is not None and contains_float(parsed[0]):
                refused[index] = "float in input"
        # each record's id is its line's index until build_llm_list names it
        records = [{"id": str(index), "source": code, "function_name": name, "input": line}
                   for index, line in enumerate(lines) if index not in refused]
        ingested, rejections = ingest_external(records, executor, config)
        for rejection in rejections:
            refused[int(records[rejection.index]["id"])] = rejection.reason
        for problem in ingested:
            if contains_float(problem.output_value()):
                refused[int(problem.id)] = "float in output"
        if not refused and len(ingested) == INPUTS_PER_FUNCTION:
            return ingested
        for index in sorted(refused):
            excluded.append(lines[index])
            reasons.append(f"{lines[index]!r}: {refused[index]}")
    raise GenerationRetriesExhausted(name, reasons)


# ---------------------------------------------------------------------------
# External ingestion


class IngestConfig:
    __slots__ = ("min_chars", "max_chars", "max_steps")

    def __init__(self, min_chars: int = 100, max_chars: int = 800,
                 max_steps: int | None = 1000):
        self.min_chars = min_chars
        self.max_chars = max_chars
        self.max_steps = max_steps  # line-event proxy for the op-count filter


class Rejection:
    __slots__ = ("index", "function_name", "reason")

    def __init__(self, index: int, function_name: str, reason: str):
        self.index = index
        self.function_name = function_name
        self.reason = reason

    def to_json(self) -> dict:
        return {"index": self.index, "function_name": self.function_name,
                "reason": self.reason}


def external_record(**record) -> dict:
    """One ``{source, function_name, input}`` record of ``ingest`` input, with
    an optional ``id``; a missing or non-string field raises TypeError naming
    it (``read_jsonl`` adds the path and line).  Other keys are ignored."""
    for name in ("source", "function_name", "input", "id"):
        if name not in record:
            if name != "id":
                raise TypeError(f"missing field {name!r}")
        elif not isinstance(record[name], str):
            raise TypeError(
                f"field {name!r} must be a string, got {type(record[name]).__name__}")
    return record


def ingest_external(
    records: list[dict], executor, config: IngestConfig | None = None
) -> tuple[list[Problem], list[Rejection]]:
    """Execute {source, function_name, input} records for ground truth.

    Rejects a record whose id a kept problem already has, applies the
    character-length window, rejects programs whose two runs disagree
    (nondeterminism), and rejects runs beyond the step budget or, under a
    budget, runs whose executor reports no step count.  Rejections are
    reported per problem, never as a global failure.

    The first runs of all records inside the window with a parseable input
    go to the executor as one stream, and the second runs of those whose
    first run passed as another, since which second runs there are depends
    on the first; each result is what a run of that call alone gives, so
    the records and reasons are those of running each record in turn.
    """
    config = config or IngestConfig()
    calls: dict[int, tuple] = {}  # record index -> (source, name, args)
    inputs: dict[int, str] = {}  # record index -> canonical input text
    static: dict[int, str] = {}  # record index -> a reason found without running it
    for index, record in enumerate(records):
        source = record["source"]
        if not config.min_chars <= len(source) <= config.max_chars:
            static[index] = (
                f"length {len(source)} outside [{config.min_chars}, {config.max_chars}]")
            continue
        parsed = _parse_input(record["input"])
        if parsed is None:
            static[index] = "unparseable input"
            continue
        calls[index] = (source, record["function_name"], parsed[0])
        inputs[index] = parsed[1]
    first = dict(zip(calls, executor.run_many(calls.values()), strict=True))
    passed = [index for index, result in first.items() if result.status == "ok"]
    second = dict(zip(passed, executor.run_many(calls[index] for index in passed),
                      strict=True))

    problems: list[Problem] = []
    rejections: list[Rejection] = []
    kept_ids: set[str] = set()
    for index, record in enumerate(records):
        source = record["source"]
        name = record["function_name"]
        problem_id = record.get("id", f"ext-{index:04d}")
        reason = (f"duplicate id {problem_id!r}" if problem_id in kept_ids
                  else static.get(index) or _run_rejection(first[index], second.get(index),
                                                           config.max_steps))
        if reason is not None:
            rejections.append(Rejection(index, name, reason))
            continue
        kept_ids.add(problem_id)
        problems.append(Problem(
            id=problem_id,
            dataset="external",
            source=source,
            function_name=name,
            input=inputs[index],
            output=canonical_repr(first[index].output),
            loc=_loc(source),
            executor="external",
        ))
    return problems, rejections


def _run_rejection(first, second, max_steps: int | None) -> str | None:
    """Why a record whose runs gave ``first`` and ``second`` (None if the
    first failed) is rejected, or None if it is kept."""
    if first.status != "ok":
        return f"execution failed: {first.error_kind}"
    if second.status != "ok" or canonical_repr(second.output) != canonical_repr(first.output):
        return "nondeterministic output"
    if max_steps is not None:
        if first.steps is None:
            return "step count not reported"
        if first.steps > max_steps:
            return f"step count {first.steps} above {max_steps}"
    return None
