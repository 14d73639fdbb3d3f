"""Dataset builders: sampled list programs, LLM-generated list programs, and
ingestion of externally collected problems.

The sampled dataset draws 1000 valid programs for each (signature, depth)
combination, then per signature picks 10 programs uniformly from each 4-wide
lines-of-code bin between 4 and 24, yielding 100 programs with 3 inputs each
(300 problems).  The LLM dataset runs a brainstorm / code-generation /
input-generation pipeline against a chat model with fixed sorting/search
functions appended, re-asking for inputs that error or involve floats.
External problems are executed through the subprocess executor for ground
truth, with character-length, determinism, and step-count filters.
"""

from __future__ import annotations

import importlib.resources
import json
import random
import re
from dataclasses import dataclass, field

from .dsl import list_dsl, to_sexpr
from .grammar import (
    SamplerConfig,
    compile_cfg,
    list_program_type,
    sample_valid_program,
)
from .problems import Problem
from .transpile import translate  # noqa: F401  bench/tracing.py wraps datasets.translate
from .values import canonical_repr, contains_float, format_args, parse_args

LOC_BINS: tuple[tuple[int, int], ...] = ((4, 8), (8, 12), (12, 16), (16, 20), (20, 24))


class InsufficientBinPopulation(Exception):
    def __init__(self, arity: int, bin_range: tuple[int, int], have: int, need: int):
        self.arity = arity
        self.bin_range = bin_range
        super().__init__(
            f"arity {arity}: LOC bin {bin_range} has {have} programs, need {need}"
        )


@dataclass
class DslListConfig:
    seed: int = 0
    arities: tuple[int, ...] = (1, 2)
    depths: tuple[int, ...] = (4, 5)
    programs_per_combo: int = 1000
    per_bin: int = 10
    bins: tuple[tuple[int, int], ...] = LOC_BINS
    input_count: int = 3
    list_len_range: tuple[int, int] = (3, 5)
    element_range: tuple[int, int] = (0, 5)
    weight_overrides: dict[str, float] = field(default_factory=dict)
    max_attempts: int = 10_000


@dataclass
class _Sampled:
    term: object
    depth: int
    source: str
    loc: int
    inputs: list[tuple]
    outputs: list


def build_dsl_list(config: DslListConfig | None = None) -> list[Problem]:
    """Build the sampled-program dataset; byte-identical for a fixed seed."""
    config = config or DslListConfig()
    primitives, constraints = list_dsl()
    problems: list[Problem] = []

    for arity in config.arities:
        pool: list[_Sampled] = []
        for depth in config.depths:
            cfg = compile_cfg(primitives, constraints, list_program_type(arity), depth)
            sampler_config = SamplerConfig(
                program_type=list_program_type(arity),
                max_depth=depth,
                weight_overrides=config.weight_overrides,
                input_count=config.input_count,
                list_len_range=config.list_len_range,
                element_range=config.element_range,
                max_attempts=config.max_attempts,
            )
            rng = random.Random(f"{config.seed}:dsl:{arity}:{depth}")
            for _ in range(config.programs_per_combo):
                sp = sample_valid_program(cfg, sampler_config, rng=rng)
                pool.append(_Sampled(
                    sp.term, depth, sp.program.source, sp.program.loc,
                    sp.inputs, sp.outputs,
                ))

        chosen: list[_Sampled] = []
        select_rng = random.Random(f"{config.seed}:select:{arity}")
        for bin_range in config.bins:
            lo, hi = bin_range
            population = [s for s in pool if lo <= s.loc < hi]
            if len(population) < config.per_bin:
                raise InsufficientBinPopulation(
                    arity, bin_range, len(population), config.per_bin
                )
            chosen.extend(select_rng.sample(population, config.per_bin))

        for index, sampled in enumerate(chosen):
            program_id = f"dsl-{arity}a-{index:03d}"
            for input_index, (args, output) in enumerate(
                zip(sampled.inputs, sampled.outputs)
            ):
                problems.append(Problem(
                    id=f"{program_id}-x{input_index}",
                    dataset="dsl-list",
                    source=sampled.source,
                    function_name="f",
                    input=format_args(args),
                    output=canonical_repr(output),
                    loc=sampled.loc,
                    executor="builtin",
                    program_id=program_id,
                    dsl_text=to_sexpr(sampled.term),
                    depth=sampled.depth,
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


class GenerationRetriesExhausted(Exception):
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


@dataclass
class LlmListConfig:
    inputs_per_function: int = 3
    max_regenerations: int = 5
    function_count: int = 112  # brainstormed plus fixed headers


def _loc(source: str) -> int:
    return sum(1 for line in source.splitlines() if line.strip())


def build_llm_list(model, executor, config: LlmListConfig | None = None) -> list[Problem]:
    """Brainstorm, generate code, generate/validate inputs, record ground truth."""
    config = config or LlmListConfig()
    brainstorm = model.complete(BRAINSTORM_PROMPT, 1)[0].text
    headers = parse_brainstorm(brainstorm)
    headers.extend(fixed_sort_search_headers())

    problems: list[Problem] = []
    for func_index, (header, description) in enumerate(headers):
        name = header.split("(", 1)[0].strip()
        code = strip_code_fences(
            model.complete(render_codegen_prompt(header, description), 1)[0].text
        )
        inputs = _generate_inputs(model, executor, name, description, code, config)
        program_id = f"llm-{func_index:03d}-{name}"
        for input_index, (input_text, output_repr) in enumerate(inputs):
            problems.append(Problem(
                id=f"{program_id}-x{input_index}",
                dataset="llm-list",
                source=code,
                function_name=name,
                input=input_text,
                output=output_repr,
                loc=_loc(code),
                executor="external",
                program_id=program_id,
            ))
    return problems


def _validate_input(executor, code: str, name: str, input_text: str):
    """Returns (ok, output_repr or reason)."""
    try:
        args = parse_args(input_text)
    except ValueError:
        return False, "unparseable input"
    if contains_float(args):
        return False, "float in input"
    result = executor.run(code, name, input_text, trace=False)
    if result.status != "ok":
        return False, f"runtime error: {result.error_kind}"
    if contains_float(result.output):
        return False, "float in output"
    return True, getattr(result, "output_repr", canonical_repr(result.output))


def _generate_inputs(model, executor, name, description, code, config):
    excluded: list[str] = []
    reasons: list[str] = []
    for _ in range(config.max_regenerations + 1):
        prompt = render_inputgen_prompt(name, description, code, excluded or None)
        text = model.complete(prompt, 1)[0].text
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        lines = lines[: config.inputs_per_function]
        accepted: list[tuple[str, str]] = []
        bad: list[str] = []
        for line in lines:
            ok, info = _validate_input(executor, code, name, line)
            if ok:
                accepted.append((line, info))
            else:
                bad.append(line)
                reasons.append(f"{line!r}: {info}")
        if len(accepted) == config.inputs_per_function:
            return accepted
        excluded.extend(bad)
    raise GenerationRetriesExhausted(name, reasons)


# ---------------------------------------------------------------------------
# External ingestion


@dataclass
class IngestConfig:
    min_chars: int = 100
    max_chars: int = 800
    max_steps: int | None = 1000  # line-event proxy for the op-count filter
    dataset_tag: str = "external"


@dataclass
class Rejection:
    index: int
    function_name: str
    reason: str


def ingest_external(
    records: list[dict], executor, config: IngestConfig | None = None
) -> tuple[list[Problem], list[Rejection]]:
    """Execute {source, function_name, input} records for ground truth.

    Applies the character-length window, rejects programs whose two runs
    disagree (nondeterminism), and rejects runs beyond the step budget.
    Rejections are reported per problem, never as a global failure.
    """
    config = config or IngestConfig()
    problems: list[Problem] = []
    rejections: list[Rejection] = []
    for index, record in enumerate(records):
        source = record["source"]
        name = record["function_name"]
        input_text = record["input"]

        def reject(reason: str):
            rejections.append(Rejection(index, name, reason))

        if not config.min_chars <= len(source) <= config.max_chars:
            reject(f"length {len(source)} outside [{config.min_chars}, {config.max_chars}]")
            continue
        first = executor.run(source, name, input_text, trace=True)
        if first.status != "ok":
            reject(f"execution failed: {first.error_kind}")
            continue
        second = executor.run(source, name, input_text, trace=False)
        first_repr = getattr(first, "output_repr", canonical_repr(first.output))
        second_repr = getattr(second, "output_repr", canonical_repr(second.output))
        if second.status != "ok" or first_repr != second_repr:
            reject("nondeterministic output")
            continue
        if config.max_steps is not None and first.steps and first.steps > config.max_steps:
            reject(f"step count {first.steps} above {config.max_steps}")
            continue
        problems.append(Problem(
            id=record.get("id", f"ext-{index:04d}"),
            dataset=config.dataset_tag,
            source=source,
            function_name=name,
            input=format_args(parse_args(input_text)),
            output=first_repr,
            loc=_loc(source),
            executor="external",
        ))
    return problems, rejections
