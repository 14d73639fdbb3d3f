import json
import sys
import time

import pytest

from conftest import fixture_path

from mutexec.executors import BuiltinExecutor, ExternalExecutor
from mutexec.mutate import enumerate_source_mutants
from mutexec.values import canonical_repr


@pytest.fixture(scope="module")
def external():
    executor = ExternalExecutor()
    yield executor
    executor.close()


class TestBuiltinExecutor:
    def test_run_and_cache(self):
        executor = BuiltinExecutor()
        source = "def f(a1):\n    return len(a1)"
        first = executor.run(source, "f", ([1, 2],))
        second = executor.run(source, "f", ([1, 2, 3],))
        assert first.output == 2 and second.output == 3

    def test_syntax_error_reported(self):
        executor = BuiltinExecutor()
        result = executor.run("def f(:\n    return 1", "f", ())
        assert result.status == "error"
        assert result.error_kind == "SyntaxError"


class TestExternalExecutor:
    def test_ok_roundtrip(self, external):
        result = external.run("def f(a1):\n    return a1[::-1]", "f", ([1, 2, 3],))
        assert result.status == "ok"
        assert result.output == [3, 2, 1]
        assert result.output_repr == "[3, 2, 1]"

    def test_string_values_supported(self, external):
        result = external.run(
            "def f(s):\n    return s.upper()", "f", "'hi'"
        )
        assert result.status == "ok"
        assert result.output == "HI"

    def test_unclosed_bracket_line_matches_builtin(self, external):
        source = "def f(a1):\n    x = [1,\n    return x\n"
        ext = external.run(source, "f", ([1],))
        mini = BuiltinExecutor().run(source, "f", ([1],))
        assert ext.error_kind == mini.error_kind == "SyntaxError"
        assert ext.error_line == mini.error_line == 2

    def test_error_classification_and_line(self, external):
        result = external.run("def f(a1):\n    return a1[9]", "f", ([1],))
        assert result.status == "error"
        assert result.error_kind == "IndexError"
        assert result.error_line == 2

    def test_coverage_tracing(self, external):
        source = (
            "def f(a1):\n"
            "    if len(a1) > 2:\n"
            "        return 1\n"
            "    else:\n"
            "        return 0\n"
        )
        taken = external.run(source, "f", ([1, 2, 3],), trace=True)
        assert 3 in taken.covered_lines and 5 not in taken.covered_lines
        skipped = external.run(source, "f", ([1],), trace=True)
        assert 5 in skipped.covered_lines and 3 not in skipped.covered_lines
        assert taken.steps > 0

    def test_timeout_kills_and_recovers(self):
        executor = ExternalExecutor(timeout=1.0)
        try:
            result = executor.run(
                "def f(a1):\n    while True:\n        pass", "f", ([1],)
            )
            assert result.status == "error"
            assert result.error_kind == "Timeout"
            # a fresh child serves the next request
            again = executor.run("def f(a1):\n    return 1", "f", ([1],))
            assert again.status == "ok" and again.output == 1
        finally:
            executor.close()

    @pytest.mark.parametrize("source, kind", [
        ("def f(a1):\n    print(a1)\n    return a1 + 1", None),
        ("def f(a1):\n    print('{\"status\": \"ok\", \"output_repr\": \"99\"}')\n"
         "    return a1 + 1", None),
        ("line = input()\ndef f(a1):\n    return a1 + 1", "EOFError"),
    ], ids=["print", "json-object-line", "module-level-input"])
    def test_program_io_stays_off_the_protocol(self, source, kind):
        with ExternalExecutor(timeout=5.0) as executor:
            result = executor.run(source, "f", "1")
            if kind is None:
                assert (result.status, result.output) == ("ok", 2)
            else:
                assert (result.status, result.error_kind) == ("error", kind)
            # the next request gets its own answer
            again = executor.run("def g(a1):\n    return a1 * 5", "g", "5")
            assert (again.status, again.output) == ("ok", 25)

    def test_non_object_response_is_bad_response(self, tmp_path):
        script = tmp_path / "answers.py"
        script.write_text(
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    if json.loads(line)['function_name'] == 'bad':\n"
            "        print('[1]', flush=True)\n"
            "    else:\n"
            "        print(json.dumps({'status': 'ok', 'output_repr': '7'}), flush=True)\n")
        with ExternalExecutor([sys.executable, str(script)], timeout=5.0) as executor:
            bad = executor.run("", "bad", "1")
            assert (bad.status, bad.error_kind) == ("error", "BadResponse")
            assert executor.proc is None  # killed; the next request respawns it
            good = executor.run("", "good", "1")
            assert (good.status, good.output) == ("ok", 7)

    @pytest.mark.parametrize("response", [
        {"status": "ok", "output_repr": None},
        {"status": "ok", "output_repr": 5},
        {"status": "ok", "output_repr": "1", "covered_lines": 5},
        {"status": "ok", "output_repr": "1", "covered_lines": ["2"]},
        {"status": "ok", "output_repr": "1", "steps": "many"},
        {"status": "error", "error": "x"},
        {"status": "error", "error": {"kind": 5, "line": 1}},
        {"status": "error", "error": {"kind": "IndexError", "line": "2"}},
    ], ids=["output_repr-null", "output_repr-int", "covered_lines-int",
            "covered_lines-str-items", "steps-str", "error-str", "error-kind-int",
            "error-line-str"])
    def test_mistyped_field_is_bad_response(self, tmp_path, response):
        script = tmp_path / "answers.py"
        script.write_text(
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    if json.loads(line)['function_name'] == 'bad':\n"
            f"        print(json.dumps({response!r}), flush=True)\n"
            "    else:\n"
            "        print(json.dumps({'status': 'ok', 'output_repr': '7'}), flush=True)\n")
        with ExternalExecutor([sys.executable, str(script)], timeout=5.0) as executor:
            executor.run("", "good", "1")
            child = executor.proc
            bad = executor.run("", "bad", "1")
            assert (bad.status, bad.error_kind) == ("error", "BadResponse")
            assert executor.proc is None  # killed; the next request respawns it
            assert child.stdin.closed and child.stdout.closed
            good = executor.run("", "good", "1")
            assert (good.status, good.output) == ("ok", 7)

    def test_partial_line_then_stall_times_out(self, tmp_path):
        script = tmp_path / "stalls.py"
        script.write_text(
            "import json, sys, time\n"
            "for line in sys.stdin:\n"
            "    if json.loads(line)['function_name'] == 'stall':\n"
            "        sys.stdout.write('{\"status\"')\n"
            "        sys.stdout.flush()\n"
            "        time.sleep(60)\n"
            "    else:\n"
            "        print(json.dumps({'status': 'ok', 'output_repr': '7'}), flush=True)\n")
        timeout = 1.0
        with ExternalExecutor([sys.executable, str(script)], timeout=timeout) as executor:
            executor.run("", "warm", "1")  # the child is up before the clock starts
            start = time.monotonic()
            stalled = executor.run("", "stall", "1")
            elapsed = time.monotonic() - start
            assert (stalled.status, stalled.error_kind) == ("error", "Timeout")
            assert elapsed < 2 * timeout
            assert executor.proc is None
            good = executor.run("", "good", "1")
            assert (good.status, good.output) == ("ok", 7)

    def test_response_split_across_writes_is_one_line(self, tmp_path):
        script = tmp_path / "slow.py"
        script.write_text(
            "import json, sys, time\n"
            "for line in sys.stdin:\n"
            "    n = json.loads(line)['input']\n"
            "    sys.stdout.write('{\"status\": \"ok\", ')\n"
            "    sys.stdout.flush()\n"
            "    time.sleep(0.05)\n"
            "    sys.stdout.write('\"output_repr\": \"' + n + '\"}\\n')\n"
            "    sys.stdout.flush()\n")
        with ExternalExecutor([sys.executable, str(script)], timeout=5.0) as executor:
            for n in (1, 2):
                result = executor.run("", "f", str(n))
                assert (result.status, result.output) == ("ok", n)

    def test_imports_allowed_externally(self, external):
        source = "import math\ndef f(a1):\n    return math.floor(a1[0] / 2)"
        result = external.run(source, "f", ([9],))
        assert result.status == "ok" and result.output == 4

    def test_custom_command_protocol(self):
        # any command speaking the JSON-lines protocol works
        command = [sys.executable, "-m", "mutexec.python_exec"]
        with ExternalExecutor(command) as executor:
            result = executor.run("def f(x):\n    return x + 1", "f", "41")
            assert result.output == 42


class TestDifferential:
    def test_fixture_size(self):
        with open(fixture_path("differential.jsonl")) as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        assert len(entries) >= 50

    def test_minipy_matches_reference_executor(self, external, small_corpus):
        """Differential check on the fixture programs, the seed-11 small
        corpus and every mutant candidate of its programs (not only the
        survivors: mutant selection reads coverage): the same status,
        canonical output, error kind, error line and covered lines."""
        with open(fixture_path("differential.jsonl")) as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        cases = [(e["source"], e["function_name"], e["input"]) for e in entries]
        for problem in small_corpus:
            cases.append((problem.source, problem.function_name, problem.input))
            cases.extend((mutant, problem.function_name, problem.input)
                         for mutant, _ in enumerate_source_mutants(problem.source))
        builtin = BuiltinExecutor()
        mismatches = []
        for source, function_name, input_text in cases:
            mini = builtin.run(source, function_name, _args(input_text))
            ext = external.run(source, function_name, input_text, trace=True)
            seen = [
                (r.status, r.error_kind, r.error_line, sorted(r.covered_lines))
                for r in (mini, ext)
            ]
            if mini.status == "ok":
                seen[0] += (canonical_repr(mini.output),)
                seen[1] += (getattr(ext, "output_repr", None),)
            if seen[0] != seen[1]:
                mismatches.append((source, input_text, seen))
        assert not mismatches, mismatches[:3]


def _args(input_text):
    from mutexec.values import parse_args

    return parse_args(input_text)
