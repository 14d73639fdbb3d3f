import hashlib
import json
import os
import pickle
import re
import shlex
import signal
import subprocess
import sys
import threading
import time

import pytest

from conftest import assert_reaped, fixture_path
from mutexec import cli, datasets, minipy, transpile
from mutexec.datasets import (
    DslListConfig,
    GenerationRetriesExhausted,
    IngestConfig,
    InsufficientBinPopulation,
    build_dsl_list,
    build_llm_list,
    fixed_sort_search_headers,
    ingest_external,
    parse_brainstorm,
    render_inputgen_prompt,
    strip_code_fences,
)
from mutexec.executors import BuiltinExecutor, ExternalExecutor
from mutexec.grammar import SamplerConfig
from mutexec.llm_client import ModelResponse
from mutexec.problems import Problem, load_jsonl, save_jsonl
from mutexec.values import canonical_repr, values_equal


SMALL_CONFIG = DslListConfig(seed=11, programs_per_combo=120, per_bin=2)


@pytest.fixture(scope="module")
def sampled_corpus():
    """The seed-11 small corpus as this version's sampler builds it."""
    return build_dsl_list(SMALL_CONFIG)


class TestDslList:
    def test_small_build_shape(self, sampled_corpus):
        # 2 signatures x 5 bins x 2 per bin = 20 programs, 3 inputs each
        assert len(sampled_corpus) == 60
        programs = {p.program_id for p in sampled_corpus}
        assert len(programs) == 20
        for program_id in programs:
            group = [p for p in sampled_corpus if p.program_id == program_id]
            assert len(group) == 3
            assert len({p.input for p in group}) == 3

    def test_bin_histogram_per_signature(self, sampled_corpus):
        for arity in (1, 2):
            locs = {}
            for p in sampled_corpus:
                if p.arity == arity:
                    locs[p.program_id] = p.loc
            histogram = {bin_range: 0 for bin_range in datasets.LOC_BINS}
            for loc in locs.values():
                for lo, hi in datasets.LOC_BINS:
                    if lo <= loc < hi:
                        histogram[(lo, hi)] += 1
            assert list(histogram.values()) == [2, 2, 2, 2, 2]

    def test_deterministic_bytes(self, tmp_path, sampled_corpus):
        rebuilt = build_dsl_list(SMALL_CONFIG)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_jsonl(sampled_corpus, str(a))
        save_jsonl(rebuilt, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_outputs_reproducible_by_reexecution(self, sampled_corpus):
        executor = BuiltinExecutor()
        for problem in sampled_corpus:
            result = executor.run(problem.source, problem.function_name, problem.args())
            assert result.status == "ok"
            assert values_equal(result.output, problem.output_value())

    def test_insufficient_bin_population(self):
        config = DslListConfig(seed=2, programs_per_combo=4, per_bin=4,
                               arities=(1,), depths=(4,))
        with pytest.raises(InsufficientBinPopulation):
            build_dsl_list(config)

    def test_jsonl_round_trip(self, tmp_path, sampled_corpus):
        path = tmp_path / "problems.jsonl"
        save_jsonl(sampled_corpus, str(path))
        assert load_jsonl(str(path)) == sampled_corpus

    def test_small_corpus_digest_pinned(self, tmp_path, sampled_corpus):
        path = tmp_path / "problems.jsonl"
        save_jsonl(sampled_corpus, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SMALL_CORPUS_SHA256

    def test_small_corpus_fixture_is_pinned(self, small_corpus):
        # the pipeline tests' corpus is the file, whatever the sampler draws
        path = fixture_path("small_corpus.jsonl")
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == SMALL_CORPUS_FIXTURE_SHA256
        assert small_corpus == load_jsonl(path)

    def test_sampling_never_parses(self, monkeypatch, tmp_path):
        # the translation builds its AST: a parse in the sampler fails here
        def no_parse(source):
            raise AssertionError("minipy.parse called while sampling")

        monkeypatch.setattr(minipy, "parse", no_parse)
        monkeypatch.setattr(datasets, "_usable_cpus", lambda: 1)
        problems = build_dsl_list(SMALL_CONFIG)
        digest = hashlib.sha256(jsonl_bytes(problems, tmp_path / "p.jsonl")).hexdigest()
        assert digest == SMALL_CORPUS_SHA256

    def test_one_translation_per_accepted_program(self, monkeypatch):
        # calls made in a forked lane are not counted here: run in-process
        monkeypatch.setattr(datasets, "_usable_cpus", lambda: 1)
        calls = []
        real_translate = transpile.translate

        def counting_translate(*args, **kwargs):
            calls.append(args)
            return real_translate(*args, **kwargs)

        monkeypatch.setattr(transpile, "translate", counting_translate)
        monkeypatch.setattr(datasets, "translate", counting_translate)
        problems = build_dsl_list(DslListConfig(
            seed=4, programs_per_combo=20, per_bin=1, bins=((4, 24),)))
        assert len(problems) == 2 * 3  # one program per signature
        # 4 (arity, depth) combinations x 20 sampled programs, each
        # translated once; rejected candidates are never translated
        assert len(calls) == 4 * 20


def patch_lanes(monkeypatch, lanes, in_child=None, in_parent=None):
    """Run ``build_dsl_list`` on ``lanes`` lanes; ``in_child(config, arity,
    depth)`` or ``in_parent(...)`` runs before each combo a forked lane or
    this process samples, and may raise or change the config it returns."""
    monkeypatch.setattr(datasets, "_usable_cpus", lambda: lanes)
    parent = os.getpid()
    real = datasets._sample_combo

    def hooked(config, arity, depth):
        hook = in_parent if os.getpid() == parent else in_child
        if hook is not None:
            config = hook(config, arity, depth) or config
        return real(config, arity, depth)

    monkeypatch.setattr(datasets, "_sample_combo", hooked)


def jsonl_bytes(problems, path):
    save_jsonl(problems, str(path))
    return path.read_bytes()


class TestParallelSampling:
    """Forked lanes give the in-process bytes, and no lane outlives the build."""

    @pytest.mark.parametrize("lanes", [2, 3])
    def test_small_corpus_bytes_on_forked_lanes(self, monkeypatch, tmp_path, forks, lanes):
        patch_lanes(monkeypatch, lanes)
        problems = build_dsl_list(SMALL_CONFIG)
        assert len(forks) == lanes - 1
        assert_reaped(forks)
        digest = hashlib.sha256(jsonl_bytes(problems, tmp_path / "p.jsonl")).hexdigest()
        assert digest == SMALL_CORPUS_SHA256

    def test_odd_combo_count_matches_in_process(self, monkeypatch, tmp_path, forks):
        config = DslListConfig(seed=5, arities=(1, 2, 3), depths=(4,),
                               programs_per_combo=30, per_bin=1, bins=((4, 24),))
        patch_lanes(monkeypatch, 2)
        forked = jsonl_bytes(build_dsl_list(config), tmp_path / "forked.jsonl")
        assert len(forks) == 1
        monkeypatch.setattr(datasets, "_usable_cpus", lambda: 1)
        in_process = jsonl_bytes(build_dsl_list(config), tmp_path / "in_process.jsonl")
        assert len(forks) == 1
        assert forked == in_process

    def test_child_attempts_exhausted_is_one_error_line(self, monkeypatch, tmp_path, capsys):
        def one_attempt(config, arity, depth):
            sampler = config.sampler
            return DslListConfig(
                seed=config.seed, arities=config.arities, depths=config.depths,
                programs_per_combo=config.programs_per_combo, per_bin=config.per_bin,
                bins=config.bins, sampler=SamplerConfig(
                    weight_overrides=sampler.weight_overrides,
                    input_count=sampler.input_count, list_len_range=sampler.list_len_range,
                    element_range=sampler.element_range, max_attempts=1))

        patch_lanes(monkeypatch, 2, in_child=one_attempt)
        code = cli.dispatch(["build-dsl-list", "--seed", "3", "--programs-per-combo", "30",
                             "--per-bin", "1", "--out", str(tmp_path / "d.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == "error: no valid program in 1 attempts\n"

    def test_unpicklable_child_exception_keeps_its_text(self, monkeypatch):
        def fail(config, arity, depth):
            # pickles, but cannot be rebuilt from its message alone
            raise InsufficientBinPopulation(arity, (4, 8), 0, 2)

        patch_lanes(monkeypatch, 2, in_child=fail)
        with pytest.raises(RuntimeError) as info:
            build_dsl_list(DslListConfig(seed=3, programs_per_combo=30, per_bin=1))
        assert type(info.value) is RuntimeError
        assert str(info.value) == (
            "InsufficientBinPopulation: arity 2: LOC bin (4, 8) has 0 programs, need 2")

    def test_killed_child_is_runtime_error(self, monkeypatch, forks):
        def die(config, arity, depth):
            os.kill(os.getpid(), signal.SIGKILL)

        patch_lanes(monkeypatch, 2, in_child=die)
        with pytest.raises(RuntimeError, match=r"sampling a2d4, a1d5: child \d+ ended "
                                               r"with signal 9 and no result"):
            build_dsl_list(DslListConfig(seed=3, programs_per_combo=30, per_bin=1))
        assert_reaped(forks)

    def test_child_killed_mid_result_is_runtime_error(self, monkeypatch, forks):
        # the lane writes half of its pickle and is killed instead of exiting
        parent = os.getpid()
        real_dumps, real_exit = pickle.dumps, os._exit

        def half_dumps(obj, *args):
            data = real_dumps(obj, *args)
            return data if os.getpid() == parent else data[:len(data) // 2]

        def killed_exit(status):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            real_exit(status)

        monkeypatch.setattr(pickle, "dumps", half_dumps)
        monkeypatch.setattr(os, "_exit", killed_exit)
        patch_lanes(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"sampling a2d4, a1d5: child \d+ ended "
                                               r"with signal 9 and no result"):
            build_dsl_list(DslListConfig(seed=3, programs_per_combo=30, per_bin=1))
        assert_reaped(forks)

    def test_parent_failure_kills_and_reaps_children(self, monkeypatch, forks):
        def hang(config, arity, depth):
            time.sleep(60)

        def fail(config, arity, depth):
            raise ValueError("parent lane failed")

        patch_lanes(monkeypatch, 3, in_child=hang, in_parent=fail)
        start = time.monotonic()
        with pytest.raises(ValueError, match="parent lane failed"):
            build_dsl_list(DslListConfig(seed=3, programs_per_combo=30, per_bin=1))
        assert time.monotonic() - start < 30
        assert len(forks) == 2
        assert_reaped(forks)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_lanes_hold_no_fd_of_their_caller(self, monkeypatch, forks):
        read_fd, write_fd = os.pipe()

        def holds_no_fd(config, arity, depth):
            for fd in (read_fd, write_fd):
                with pytest.raises(OSError):
                    os.fstat(fd)

        patch_lanes(monkeypatch, 3, in_child=holds_no_fd)
        try:
            problems = build_dsl_list(DslListConfig(seed=3, programs_per_combo=30, per_bin=1))
        finally:
            os.close(read_fd)
            os.close(write_fd)
        assert len(forks) == 2
        assert len(problems) == 2 * 5 * 3

    def test_threads_keep_sampling_in_process(self, monkeypatch, forks):
        patch_lanes(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            problems = build_dsl_list(DslListConfig(seed=3, programs_per_combo=30, per_bin=1))
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert len(problems) == 2 * 5 * 3


# sha256 of the seed-11 small corpus as save_jsonl writes it; a change to the
# seed -> dataset mapping has to update this on purpose
SMALL_CORPUS_SHA256 = "baa8b39537a28b9085a634aeb24c70b258e6160e4daa1aa70661e2cb1de2dc4f"

# sha256 of tests/fixtures/small_corpus.jsonl, the seed-11 small corpus of
# version 0.1.0, which the conftest's small_corpus fixture loads
SMALL_CORPUS_FIXTURE_SHA256 = "86cb3d5d564583cffd97e8bb71dd3fc7f2656b560d5d7e7360979ea42f55f5c5"


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
        problems = build_llm_list(model, external_executor)
        for problem in problems[:9]:
            result = external_executor.run(
                problem.source, problem.function_name, problem.args()
            )
            assert result.status == "ok"
            assert canonical_repr(result.output) == problem.output

    def test_retries_exhausted(self, external_executor):
        class AlwaysBad(FakeListModel):
            def _inputgen(self, prompt):
                return "[1.5]\n[2.5]\n[3.5]"

        model = AlwaysBad(n_functions=1)
        with pytest.raises(GenerationRetriesExhausted):
            build_llm_list(model, external_executor, max_regenerations=2)

    def test_clock_reading_function_is_re_asked_then_refused(self, external_executor):
        # its two runs differ, so ingestion rejects every input, as it
        # rejects the same program given to ``ingest``
        class Clock(FakeListModel):
            def _codegen(self, prompt):
                return ("def fn_001(lst):\n    import time\n"
                        "    return lst + [time.perf_counter_ns()]")

        model = Clock(n_functions=1)
        with pytest.raises(GenerationRetriesExhausted) as err:
            build_llm_list(model, external_executor, max_regenerations=1)
        assert err.value.function == "fn_001"
        assert "'[1, 2]': nondeterministic output" in str(err.value)
        assert ("Do NOT include the following inputs: [1, 2], [3, 4, 5], [0, 6]"
                in model.exclusion_prompts[0])


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

    def test_repeated_id_rejected(self, external_executor):
        # an id pairs a problem with its mutant, so a second problem may not
        # take a kept problem's id; the id of a rejected record stays free
        records = [
            {"id": "p1", "source": "def f(x):\n    return x + 1", "function_name": "f",
             "input": "1"},
            {"id": "p1", "source": "def g(x):\n    return [x, 8]", "function_name": "g",
             "input": "7"},
            {"id": "p2", "source": "def h(x):\n    return x[5]", "function_name": "h",
             "input": "[1]"},
            {"id": "p2", "source": "def k(x):\n    return x", "function_name": "k",
             "input": "2"},
        ]
        problems, rejections = ingest_external(
            records, external_executor, IngestConfig(min_chars=1))
        assert [(p.id, p.function_name, p.output) for p in problems] == [
            ("p1", "f", "2"), ("p2", "k", "2")]
        assert [(r.index, r.reason) for r in rejections] == [
            (1, "duplicate id 'p1'"), (2, "execution failed: IndexError")]


    def test_hang_costs_only_its_own_record(self):
        records = [
            {"source": "def f(x):\n    return x + 1", "function_name": "f", "input": "1"},
            {"source": "def f(x):\n    while True:\n        pass", "function_name": "f",
             "input": "1"},
            {"source": "def f(x):\n    return x * 3", "function_name": "f", "input": "2"},
        ]
        with ExternalExecutor(timeout=1.0) as executor:
            problems, rejections = ingest_external(records, executor,
                                                   IngestConfig(min_chars=1))
        assert [(p.id, p.output) for p in problems] == [("ext-0000", "2"), ("ext-0002", "6")]
        assert [(r.index, r.reason) for r in rejections] == [
            (1, "execution failed: Timeout")]

    def test_id_of_a_record_rejected_after_both_runs_stays_free(self, external_executor):
        # the first p1 passes its first run and fails the determinism check,
        # the first p2 fails the step budget: the next record of each id is kept
        counter = "count = [0]\ndef f(x):\n    count[0] += 1\n    return x + count[0]"
        records = [
            {"id": "p1", "source": "import time\ndef f(x):\n    return time.perf_counter_ns()",
             "function_name": "f", "input": "1"},
            {"id": "p2", "source": "def f(x):\n    for i in range(50):\n        x += i\n"
             "    return x", "function_name": "f", "input": "1"},
            {"id": "p1", "source": counter, "function_name": "f", "input": "1"},
            {"id": "p2", "source": "def f(x):\n    return x", "function_name": "f",
             "input": "5"},
            {"id": "p1", "source": "def f(x):\n    return -x", "function_name": "f",
             "input": "1"},
        ]
        problems, rejections = ingest_external(
            records, external_executor, IngestConfig(min_chars=1, max_steps=20))
        assert [(p.id, p.output) for p in problems] == [("p1", "2"), ("p2", "5")]
        assert [(r.index, r.reason) for r in rejections] == [
            (0, "nondeterministic output"), (1, "step count 102 above 20"),
            (4, "duplicate id 'p1'")]


class TestOneGroundTruthPath:
    """Every ingested or LLM-written problem stores ``format_args`` of its
    parsed input and ``canonical_repr`` of its output, whichever executor
    ran it."""

    def ingest(self, tmp_path, records, *options):
        source = tmp_path / "raw.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / f"ingested{len(list(tmp_path.iterdir()))}.jsonl"
        code = cli.dispatch(["ingest", "--in", str(source), "--out", str(out),
                             "--min-chars", "1", *options])
        assert code == 0
        return out

    def test_builtin_and_external_ingest_write_the_same_bytes(self, tmp_path):
        # the loop takes 303 line events in either executor, under the
        # default budget of 1000
        loop = ("def f(xs):\n    t = 0\n    for i in range(len(xs)):\n"
                "        t = t + xs[i] * 2\n    return t")
        records = [{"source": "def f(a1):\n    a1.append(1)\n    return a1",
                    "function_name": "f", "input": "[1,2]"},
                   {"source": loop, "function_name": "f", "input": str(list(range(150)))},
                   {"source": "def f(a1):\n    return a1", "function_name": "f",
                    "input": "1e999"}]
        builtin = self.ingest(tmp_path, records, "--executor", "builtin")
        external = self.ingest(tmp_path, records, "--executor", "external")
        assert builtin.read_bytes() == external.read_bytes()
        rejected = [(tmp_path / f"{out.name}.rejected.jsonl").read_bytes()
                    for out in (builtin, external)]
        assert rejected[0] == rejected[1]
        assert [json.loads(line)["reason"] for line in rejected[0].splitlines()] == [
            "unparseable input"]
        appended, summed = load_jsonl(str(builtin))
        assert (appended.input, appended.output) == ("[1, 2]", "[1, 2, 1]")
        assert summed.output == str(2 * sum(range(150)))
        with open(str(builtin) + ".manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] is None and "seed" not in manifest["options"]

    def test_set_output_bytes_do_not_depend_on_the_hash_seed(self, tmp_path):
        # the command runs under each hash seed, and its executor child,
        # forked or spawned, shares the command's hash secret
        records = [{"source": "def f(xs):\n    return {str(x) for x in xs}",
                    "function_name": "f", "input": "[1, 3, 2, 10, 22]"}]
        source = tmp_path / "raw.jsonl"
        source.write_text("".join(json.dumps(r) + "\n" for r in records))
        src = os.path.dirname(os.path.dirname(datasets.__file__))
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"ingested{seed}.jsonl"
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
            done = subprocess.run(
                [sys.executable, "-m", "mutexec.cli", "ingest", "--in", str(source),
                 "--out", str(out), "--min-chars", "1"],
                env=env, capture_output=True, text=True, timeout=120)
            assert (done.returncode, done.stderr) == (0, "")
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["output"] == "{'1', '10', '2', '22', '3'}"

    def test_rejected_file_keeps_record_order(self, tmp_path):
        ok = {"source": "def f(x):\n    return x", "function_name": "f", "input": "1"}
        records = [
            {"source": "def f(x):\n    return x[3]", "function_name": "f", "input": "[1]"},
            {**ok, "input": "[1,"},
            ok,
            {"source": "import time\ndef f(x):\n    return time.perf_counter_ns()",
             "function_name": "f", "input": "1"},
            {**ok, "source": "def f(x):\n    return x" + " " * 900},
            {**ok, "id": "ext-0002"},
            {"source": "def f(x):\n    return 1 // 0", "function_name": "f", "input": "1"},
        ]
        out = self.ingest(tmp_path, records)
        with open(str(out) + ".rejected.jsonl") as fh:
            rejected = [(r["index"], r["reason"]) for r in map(json.loads, fh)]
        assert rejected == [
            (0, "execution failed: IndexError"), (1, "unparseable input"),
            (3, "nondeterministic output"), (4, "length 922 outside [1, 800]"),
            (5, "duplicate id 'ext-0002'"), (6, "execution failed: ZeroDivisionError")]

    def test_values_without_canonical_text_are_rejections(self, tmp_path, capsys):
        records = [
            {"source": "def f(a1):\n    return b'ab'", "function_name": "f", "input": "1"},
            {"source": "def f(a1):\n    return 1j", "function_name": "f", "input": "1"},
            {"source": "def f(a1):\n    return len(a1)", "function_name": "f",
             "input": 'b"ab"'},
            {"source": "def f(a1):\n    return a1", "function_name": "f", "input": "[1,"},
            {"source": "def f(a1):\n    return 1e999", "function_name": "f", "input": "1"},
            {"source": "def f(a1):\n    return a1", "function_name": "f",
             "input": "[1, -1e999]"},
        ]
        out = self.ingest(tmp_path, records)
        assert "ingested 0 problems, rejected 6" in capsys.readouterr().out
        with open(str(out) + ".rejected.jsonl") as fh:
            rejected = [json.loads(line)["reason"] for line in fh]
        assert rejected == ["execution failed: UnrepresentableOutput"] * 2 + [
            "unparseable input"] * 2 + ["execution failed: UnrepresentableOutput",
                                        "unparseable input"]

    def test_step_budget_rejects_a_child_that_reports_no_steps(self, tmp_path, capsys):
        # a custom child that answers every request "ok", 7, with no steps
        child = tmp_path / "child.py"
        child.write_text(
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    print(json.dumps({'status': 'ok', 'output_repr': '7'}), flush=True)\n")
        loop = "def f(n):\n    for i in range(10000):\n        n = n + 1\n    return n"
        records = [{"source": loop, "function_name": "f", "input": "0"}]
        command = f"{shlex.quote(sys.executable)} {shlex.quote(str(child))}"
        out = self.ingest(tmp_path, records, "--executor-cmd", command, "--max-steps", "5")
        assert "ingested 0 problems, rejected 1" in capsys.readouterr().out
        with open(str(out) + ".rejected.jsonl") as fh:
            assert [json.loads(line)["reason"] for line in fh] == ["step count not reported"]
        with ExternalExecutor(command) as external:
            assert external.run(loop, "f", (0,)).steps is None

    def test_mutant_returning_bytes_is_no_survivor(self, tmp_path, capsys):
        # every mutant that changes the first output returns bytes
        bytes_only = "def f(x):\n    if x > 5:\n        return b'ab'\n    return x"
        plain = "def g(x):\n    return x + 1"
        problems = [
            Problem(id=pid, dataset="external", source=source, function_name=name,
                    input="3", output=output, loc=2, executor="external")
            for pid, source, name, output in (("p0", bytes_only, "f", "3"),
                                              ("p1", plain, "g", "4"))]
        source = tmp_path / "problems.jsonl"
        save_jsonl(problems, str(source))
        pairs = tmp_path / "pairs"
        assert cli.dispatch(["mutate", "--in", str(source), "--out", str(pairs),
                             "--executor", "external"]) == 0
        assert "kept 1 pairs (1 dropped" in capsys.readouterr().out
        mutant, = load_jsonl(str(pairs / "mutants.jsonl"))
        assert mutant.id == "p1" and mutant.output_value() != 4

    def test_build_llm_list_with_the_builtin_executor(self, tmp_path):
        # a scripted model: one brainstormed function plus the fixed sort and
        # search functions, each written in the mini-language
        brainstorm = '1. "append_one(lst)": "appends 1 to the list"'
        entries = [(datasets.BRAINSTORM_PROMPT, brainstorm)]
        for header, description in (parse_brainstorm(brainstorm)
                                     + fixed_sort_search_headers()):
            name, params = header.rstrip(")").split("(")
            if "," in params:
                code = f"def {name}({params}):\n    return len(lst) + target"
                inputs = "[1, 2], 1\n[3], 3\n[4,5],4"
            else:
                code = f"def {name}(lst):\n    lst.append(1)\n    return lst"
                inputs = "[1, 2]\n[3]\n[4,5]"
            entries.append((datasets.render_codegen_prompt(header, description), code))
            entries.append((render_inputgen_prompt(name, description, code), inputs))
        transcript = tmp_path / "transcript.jsonl"
        transcript.write_text("".join(json.dumps({"prompt": p, "response": r}) + "\n"
                                      for p, r in entries))
        outs = []
        for executor in ("builtin", "external"):
            out = tmp_path / f"{executor}.jsonl"
            assert cli.dispatch(["build-llm-list", "--model", f"mock:scripted:{transcript}",
                                 "--executor", executor, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        problems = load_jsonl(str(tmp_path / "builtin.jsonl"))
        assert len(problems) == 13 * 3
        assert [(p.input, p.output) for p in problems[:3]] == [
            ("[1, 2]", "[1, 2, 1]"), ("[3]", "[3, 1]"), ("[4, 5]", "[4, 5, 1]")]
        assert problems[-1].input == "[4, 5], 4"
