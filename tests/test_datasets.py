import hashlib
import re

import pytest

from mutexec import datasets, grammar, transpile
from mutexec.datasets import (
    DslListConfig,
    GenerationRetriesExhausted,
    IngestConfig,
    InsufficientBinPopulation,
    LlmListConfig,
    build_dsl_list,
    build_llm_list,
    fixed_sort_search_headers,
    ingest_external,
    parse_brainstorm,
    render_inputgen_prompt,
    strip_code_fences,
)
from mutexec.executors import BuiltinExecutor, ExternalExecutor
from mutexec.llm_client import ModelResponse
from mutexec.problems import load_jsonl, save_jsonl
from mutexec.values import values_equal


class TestDslList:
    def test_small_build_shape(self, small_corpus):
        # 2 signatures x 5 bins x 2 per bin = 20 programs, 3 inputs each
        assert len(small_corpus) == 60
        programs = {p.program_id for p in small_corpus}
        assert len(programs) == 20
        for program_id in programs:
            group = [p for p in small_corpus if p.program_id == program_id]
            assert len(group) == 3
            assert len({p.input for p in group}) == 3

    def test_bin_histogram_per_signature(self, small_corpus):
        for arity in (1, 2):
            locs = {}
            for p in small_corpus:
                if p.arity == arity:
                    locs[p.program_id] = p.loc
            histogram = {bin_range: 0 for bin_range in datasets.LOC_BINS}
            for loc in locs.values():
                for lo, hi in datasets.LOC_BINS:
                    if lo <= loc < hi:
                        histogram[(lo, hi)] += 1
            assert list(histogram.values()) == [2, 2, 2, 2, 2]

    def test_deterministic_bytes(self, tmp_path, small_corpus):
        config = DslListConfig(seed=11, programs_per_combo=120, per_bin=2)
        rebuilt = build_dsl_list(config)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_jsonl(small_corpus, str(a))
        save_jsonl(rebuilt, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_outputs_reproducible_by_reexecution(self, small_corpus):
        executor = BuiltinExecutor()
        for problem in small_corpus:
            result = executor.run(problem.source, problem.function_name, problem.args())
            assert result.status == "ok"
            assert values_equal(result.output, problem.output_value())

    def test_insufficient_bin_population(self):
        config = DslListConfig(seed=2, programs_per_combo=4, per_bin=4,
                               arities=(1,), depths=(4,))
        with pytest.raises(InsufficientBinPopulation):
            build_dsl_list(config)

    def test_jsonl_round_trip(self, tmp_path, small_corpus):
        path = tmp_path / "problems.jsonl"
        save_jsonl(small_corpus, str(path))
        assert load_jsonl(str(path)) == small_corpus

    def test_small_corpus_digest_pinned(self, tmp_path, small_corpus):
        path = tmp_path / "problems.jsonl"
        save_jsonl(small_corpus, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SMALL_CORPUS_SHA256

    def test_one_translation_per_candidate_past_s1_s4(self, monkeypatch):
        counts = {"translate": 0, "passed": 0}
        real_translate, real_check = transpile.translate, grammar.check_constraints

        def counting_translate(*args, **kwargs):
            counts["translate"] += 1
            return real_translate(*args, **kwargs)

        def counting_check(*args, **kwargs):
            violations = real_check(*args, **kwargs)
            counts["passed"] += not violations
            return violations

        monkeypatch.setattr(transpile, "translate", counting_translate)
        monkeypatch.setattr(datasets, "translate", counting_translate)
        monkeypatch.setattr(grammar, "check_constraints", counting_check)
        problems = build_dsl_list(DslListConfig(
            seed=4, programs_per_combo=20, per_bin=1, bins=((4, 24),)))
        assert len(problems) == 2 * 3  # one program per signature
        assert counts["passed"] >= 4 * 20
        assert counts["translate"] == counts["passed"]


# sha256 of the seed-11 small corpus as save_jsonl writes it; a change to the
# seed -> dataset mapping has to update this on purpose
SMALL_CORPUS_SHA256 = "86cb3d5d564583cffd97e8bb71dd3fc7f2656b560d5d7e7360979ea42f55f5c5"


# ---------------------------------------------------------------------------
# LLM-List pipeline with a deterministic fake chat model


class FakeListModel:
    """Pattern-matches the three pipeline prompts and answers plausibly."""

    parallelism = 1
    default_mode = "zero_shot"

    def __init__(self, n_functions=100, flaky_function="fn_007"):
        self.flaky_function = flaky_function
        self.n_functions = n_functions
        self.exclusion_prompts: list[str] = []
        self.calls = 0

    def _brainstorm(self):
        lines = []
        for i in range(1, self.n_functions + 1):
            lines.append(
                f'{i}. "fn_{i:03d}(lst)": "returns the list with {i} added to each element"'
            )
        return "\n".join(lines)

    def _codegen(self, prompt):
        header = re.search(r"function `([^`]+)`", prompt).group(1)
        name = header.split("(")[0]
        params = header[header.index("(") + 1 : header.index(")")]
        first = params.split(",")[0].strip()
        if name.startswith("fn_"):
            offset = int(name.split("_")[1])
            return (
                f"```python\ndef {name}({params}):\n"
                f"    out = []\n"
                f"    for x in {first}:\n"
                f"        out.append(x + {offset})\n"
                f"    return out\n```"
            )
        if "," in params:  # search helpers: lst, target
            return (
                f"def {name}({params}):\n"
                f"    for i in range(len({first})):\n"
                f"        if {first}[i] == target:\n"
                f"            return i\n"
                f"    return -1"
            )
        return (
            f"def {name}({params}):\n"
            f"    out = list({first})\n"
            f"    out.sort()\n"
            f"    return out"
        )

    def _inputgen(self, prompt):
        if "Do NOT include the following inputs:" in prompt:
            self.exclusion_prompts.append(prompt)
            return "[1, 2]\n[3, 4, 5]\n[0, 6]"
        name = re.findall(r"named `([^`]+)`", prompt)[-1]
        if name == self.flaky_function and not self.exclusion_prompts:
            return "[1.5, 2]\n[3, 4, 5]\n[0, 6]"  # float triggers regeneration
        if "target" in prompt:
            return "[1, 2, 3], 2\n[5, 6], 9\n[4], 4"
        return "[1, 2]\n[3, 4, 5]\n[0, 6]"

    def complete(self, prompt, n=1):
        self.calls += 1
        if "brainstorm a list of 100" in prompt:
            text = self._brainstorm()
        elif "Your task is to write a Python function" in prompt:
            text = self._codegen(prompt)
        else:
            text = self._inputgen(prompt)
        return [ModelResponse(text=text, finish_reason="stop")] * n

    def close(self):
        pass


@pytest.fixture(scope="module")
def external_executor():
    executor = ExternalExecutor()
    yield executor
    executor.close()


class TestLlmList:
    def test_parse_brainstorm(self):
        text = '1. "remove(lst, value)": "removes each occurrence of value"\n' \
               '2. "argmax(lst)": "index of the largest element"\n' \
               "not a numbered line\n" \
               '3. "mean(lst)": "integer mean of the elements"'
        parsed = parse_brainstorm(text)
        assert parsed[0] == ("remove(lst, value)", "removes each occurrence of value")
        assert len(parsed) == 3

    def test_fixed_headers(self):
        headers = fixed_sort_search_headers()
        assert len(headers) == 12
        names = [h.split("(")[0] for h, _ in headers]
        assert names.count("linear_search") == 1
        assert names.count("binary_search") == 1
        assert sum(1 for n in names if n.endswith("_sort")) == 10

    def test_strip_code_fences(self):
        fenced = "```python\ndef f(x):\n    return x\n```"
        assert strip_code_fences(fenced) == "def f(x):\n    return x"
        assert strip_code_fences("def g(x):\n    return x") == "def g(x):\n    return x"

    def test_inputgen_prompt_contains_one_shot_example(self):
        prompt = render_inputgen_prompt("f", "does things", "def f(lst):\n    return lst")
        assert "def add(a, b):" in prompt
        assert "3, 5\n-2, 7\n0, 0" in prompt
        assert prompt.index("add") < prompt.index("does things")

    def test_exclusion_suffix_before_code_block(self):
        prompt = render_inputgen_prompt(
            "f", "does things", "def f(lst):\n    return lst",
            excluded_inputs=["[1.5, 2]", "[9]"],
        )
        marker = "Do NOT include the following inputs: [1.5, 2], [9]"
        assert marker in prompt
        assert prompt.index(marker) < prompt.rindex("```python")

    def test_pipeline_yields_112_programs_with_3_inputs(self, external_executor):
        model = FakeListModel()
        problems = build_llm_list(model, external_executor)
        programs = {p.program_id for p in problems}
        assert len(programs) == 112
        assert len(problems) == 336
        for problem in problems:
            assert problem.dataset == "llm-list"
            assert problem.executor == "external"
        # the flaky function went through the regeneration path
        assert model.exclusion_prompts
        assert "Do NOT include the following inputs: [1.5, 2]" in model.exclusion_prompts[0]

    def test_outputs_match_reexecution(self, external_executor):
        model = FakeListModel(n_functions=3)
        problems = build_llm_list(
            model, external_executor, LlmListConfig()
        )
        for problem in problems[:9]:
            result = external_executor.run(
                problem.source, problem.function_name, problem.input
            )
            assert result.status == "ok"
            assert result.output_repr == problem.output

    def test_retries_exhausted(self, external_executor):
        class AlwaysBad(FakeListModel):
            def _inputgen(self, prompt):
                return "[1.5]\n[2.5]\n[3.5]"

        model = AlwaysBad(n_functions=1)
        with pytest.raises(GenerationRetriesExhausted):
            build_llm_list(model, external_executor,
                           LlmListConfig(max_regenerations=2))


class TestIngest:
    def make_records(self):
        long_body = "\n".join(f"    v{i} = {i}" for i in range(3))
        source = (
            "def solve(lst):\n" + long_body + "\n"
            "    total = 0\n"
            "    for x in lst:\n"
            "        total += x\n"
            "    return total"
        )
        assert 100 <= len(source) <= 800
        return [
            {"source": source, "function_name": "solve", "input": "[1, 2, 3]"},
            {"source": "def tiny(x):\n    return x", "function_name": "tiny",
             "input": "1"},
            {"source": "import time\ndef jitter(x):\n    " + "y = 0\n    " * 12 +
             "return time.perf_counter_ns() + x",
             "function_name": "jitter", "input": "1"},
        ]

    def test_filters_and_ground_truth(self, external_executor):
        records = self.make_records()
        problems, rejections = ingest_external(records, external_executor)
        assert [p.function_name for p in problems] == ["solve"]
        assert problems[0].output == "6"
        reasons = {r.function_name: r.reason for r in rejections}
        assert "tiny" in reasons and "length" in reasons["tiny"]
        assert "jitter" in reasons and "nondeterministic" in reasons["jitter"]

    def test_character_window_boundaries(self, external_executor):
        def sized(n):
            # a runnable one-liner padded with a trailing comment to n chars
            base = "def f(x):\n    return x  #"
            source = base + "p" * (n - len(base))
            assert len(source) == n
            return {"source": source, "function_name": "f", "input": "1"}

        records = [sized(99), sized(100), sized(800), sized(801)]
        problems, rejections = ingest_external(records, external_executor)
        assert [p.id for p in problems] == ["ext-0001", "ext-0002"]
        assert sorted(r.index for r in rejections) == [0, 3]

    def test_step_budget(self, external_executor):
        source = (
            "def spin(n):\n"
            "    total = 0\n"
            "    for i in range(2000):\n"
            "        total += i\n"
            "    " + "pad = 0\n    " * 8 +
            "return total + n"
        )
        assert len(source) >= 100
        records = [{"source": source, "function_name": "spin", "input": "1"}]
        problems, rejections = ingest_external(
            records, external_executor, IngestConfig(max_steps=1000)
        )
        assert not problems
        assert "step count" in rejections[0].reason
        relaxed, _ = ingest_external(
            records, external_executor, IngestConfig(max_steps=None)
        )
        assert len(relaxed) == 1
