import cProfile
import functools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import time
import warnings

import pytest

from conftest import assert_reaped, fixture_path
from reference import random_texts, typed_term_calls

from mutexec import executors, minipy
from mutexec.datasets import DslListConfig, build_dsl_list
from mutexec.executors import BuiltinExecutor, ExternalExecutor
from mutexec.mutate import enumerate_source_mutants, mutate_dataset
from mutexec.values import canonical_repr, parse_args


@pytest.fixture(scope="module")
def external():
    executor = ExternalExecutor()
    yield executor
    executor.close()


def outcome(result):
    return (result.status, result.output, result.error_kind, result.error_line,
            sorted(result.covered_lines), result.steps)


def answer(result):
    """A result's six fields, an ``ok`` output as its canonical text."""
    output = canonical_repr(result.output) if result.status == "ok" else result.output
    return (result.status, output, result.error_kind, result.error_line,
            sorted(result.covered_lines), result.steps)


def unsupported(fields):
    """Whether ``fields`` are the builtin executor's one answer outside its
    language."""
    return fields[:3] == ("error", None, "Unsupported") and fields[4:] == ([], 0)


def contract_breaches(calls, external):
    """The builtin executor's contract, checked against the host child as in
    differential testing (McKeeman 1998): the calls whose builtin answer is
    neither ``Unsupported`` nor the host child's on all six fields, each
    with both answers."""
    builtin = BuiltinExecutor()
    breaches = []
    for call, host in zip(calls, external.run_many(calls)):
        mine, theirs = answer(builtin.run(*call)), answer(host)
        if not (unsupported(mine) or mine == theirs):
            breaches.append((call, mine, theirs))
    return breaches


def one_at_a_time(calls, command=None, timeout=10.0):
    with ExternalExecutor(command, timeout=timeout) as executor:
        return [outcome(executor.run(*call)) for call in calls]


def times(n):
    return (f"def f(a1):\n    return a1 * {n}", "f", (3,))


def scripted(tmp_path, body):
    """A child that answers ``'7'`` to every request whose function is not
    ``bad`` or ``stall``; ``body`` handles those two, given ``request``."""
    script = tmp_path / "child.py"
    script.write_text(
        "import json, sys, time\n"
        "for line in sys.stdin:\n"
        "    request = json.loads(line)\n"
        "    if request['function_name'] in ('bad', 'stall'):\n"
        + "".join(f"        {stmt}\n" for stmt in body) +
        "    else:\n"
        "        print(json.dumps({'status': 'ok', 'output_repr': '7'}), flush=True)\n")
    return [sys.executable, str(script)]


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
        assert outcome(result) == ("error", None, "Unsupported", 1, [], 0)


class TestExternalExecutor:
    def test_ok_roundtrip(self, external):
        result = external.run("def f(a1):\n    return a1[::-1]", "f", ([1, 2, 3],))
        assert result.status == "ok"
        assert result.output == [3, 2, 1]
        assert canonical_repr(result.output) == "[3, 2, 1]"

    def test_string_values_supported(self, external):
        result = external.run(
            "def f(s):\n    return s.upper()", "f", ("hi",)
        )
        assert result.status == "ok"
        assert result.output == "HI"

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
        taken = external.run(source, "f", ([1, 2, 3],))
        assert 3 in taken.covered_lines and 5 not in taken.covered_lines
        skipped = external.run(source, "f", ([1],))
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
            result = executor.run(source, "f", (1,))
            if kind is None:
                assert (result.status, result.output) == ("ok", 2)
            else:
                assert (result.status, result.error_kind) == ("error", kind)
            # the next request gets its own answer
            again = executor.run("def g(a1):\n    return a1 * 5", "g", (5,))
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
            bad = executor.run("", "bad", (1,))
            assert (bad.status, bad.error_kind) == ("error", "BadResponse")
            assert executor.proc is None  # killed; the next request respawns it
            good = executor.run("", "good", (1,))
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
            executor.run("", "good", (1,))
            child = executor.proc
            bad = executor.run("", "bad", (1,))
            assert (bad.status, bad.error_kind) == ("error", "BadResponse")
            assert executor.proc is None  # killed; the next request respawns it
            assert child.stdin.closed and child.stdout.closed
            good = executor.run("", "good", (1,))
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
            executor.run("", "warm", (1,))  # the child is up before the clock starts
            start = time.monotonic()
            stalled = executor.run("", "stall", (1,))
            elapsed = time.monotonic() - start
            assert (stalled.status, stalled.error_kind) == ("error", "Timeout")
            assert elapsed < 2 * timeout
            assert executor.proc is None
            good = executor.run("", "good", (1,))
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
                result = executor.run("", "f", (n,))
                assert (result.status, result.output) == ("ok", n)

    def test_imports_allowed_externally(self, external):
        source = "import math\ndef f(a1):\n    return math.floor(a1[0] / 2)"
        result = external.run(source, "f", ([9],))
        assert result.status == "ok" and result.output == 4

    def test_custom_command_protocol(self):
        # any command speaking the JSON-lines protocol works
        command = [sys.executable, "-m", "mutexec.python_exec"]
        with ExternalExecutor(command) as executor:
            result = executor.run("def f(x):\n    return x + 1", "f", (41,))
            assert result.output == 42


    @pytest.mark.parametrize("value", ["b'ab'", "1j", "[1, b'a']"],
                             ids=["bytes", "complex", "bytes-in-list"])
    def test_output_without_canonical_text_is_unrepresentable(self, external, value):
        result = external.run(f"def f(a1):\n    return {value}", "f", (1,))
        assert (result.status, result.error_kind) == ("error", "UnrepresentableOutput")
        again = external.run("def f(a1):\n    return {'b', 'a'}", "f", (1,))
        assert (again.status, canonical_repr(again.output)) == ("ok", "{'a', 'b'}")

    @pytest.mark.parametrize("value", ["1e400", "-1e400", "[1e400]"],
                             ids=["inf", "-inf", "inf-in-list"])
    def test_non_finite_float_is_unrepresentable(self, tmp_path, value):
        command = scripted(tmp_path, [
            f"print(json.dumps({{'status': 'ok', 'output_repr': {value!r}}}), flush=True)"])
        with ExternalExecutor(command, timeout=5.0) as executor:
            bad = executor.run("", "bad", (1,))
            assert (bad.status, bad.error_kind) == ("error", "UnrepresentableOutput")
            good = executor.run("", "good", (1,))
            assert (good.status, good.output) == ("ok", 7)

    @pytest.mark.parametrize("script, timeout, message", [
        ("import sys; sys.exit(1)", 5.0, "its output ended, exit status 1"),
        ("import time; time.sleep(60)", 0.5, "no answer within 0.5 s"),
        ("print(1); input()", 5.0, "a malformed answer"),
    ], ids=["exits", "silent", "banner"])
    def test_command_that_cannot_start_raises(self, script, timeout, message):
        with ExternalExecutor([sys.executable, "-c", script], timeout=timeout) as executor:
            with pytest.raises(RuntimeError) as err:
                executor.run("def f(a1):\n    return a1", "f", (1,))
            command = shlex.join([sys.executable, "-c", script])
            assert str(err.value) == (
                f"executor command {command} failed its start-up probe: {message}")
            assert executor.proc is None

    @pytest.mark.parametrize("timeout", [0, -1.0, math.nan, math.inf])
    def test_timeout_must_be_positive_and_finite(self, timeout):
        # 0, -1 and nan would fail the start-up probe as if the child were
        # at fault, and inf overflows the selector's wait
        with pytest.raises(ValueError):
            ExternalExecutor(timeout=timeout)

    @pytest.mark.parametrize("command", ["", "  ", []], ids=["empty", "spaces", "no_words"])
    def test_command_must_not_be_empty(self, command):
        # Popen would fail on it with an IndexError
        with pytest.raises(ValueError, match="the executor command is empty"):
            ExternalExecutor(command)

    def test_death_after_start_up_is_per_request(self):
        with ExternalExecutor(timeout=5.0) as executor:
            died = executor.run("import os\ndef f(a1):\n    os._exit(1)", "f", (1,))
            assert (died.status, died.error_kind) == ("error", "ExecutorCrashed")
            again = executor.run("def g(a1):\n    return a1 * 5", "g", (5,))
            assert (again.status, again.output) == ("ok", 25)


class TestBatch:
    """``run_many`` writes a batch ahead of its answers; after a failure at
    one request the rest go to a fresh child, so each result equals a
    one-at-a-time ``run`` on a fresh executor."""

    def test_batch_equals_one_at_a_time(self, external):
        calls = [times(n) for n in range(12)] + [times(3)]
        batch = [outcome(r) for r in external.run_many(calls)]
        assert batch == one_at_a_time(calls)
        assert [output for _, output, *_ in batch] == [3 * n for n in range(12)] + [9]
        assert list(external.run_many([])) == []

    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_crash_at_request_k(self, k):
        calls = [times(n) for n in range(6)]
        calls[k] = ("import os\ndef f(a1):\n    os._exit(1)", "f", (1,))
        with ExternalExecutor(timeout=5.0) as executor:
            batch = [outcome(r) for r in executor.run_many(calls)]
        assert batch == one_at_a_time(calls, timeout=5.0)
        assert batch[k][:3] == ("error", None, "ExecutorCrashed")
        if k + 1 < len(calls):
            assert batch[k + 1][:2] == ("ok", 3 * (k + 1))

    def test_hang_at_request_k(self):
        calls = [times(n) for n in range(5)]
        calls[2] = ("def f(a1):\n    while True:\n        pass", "f", (1,))
        with ExternalExecutor(timeout=1.0) as executor:
            batch = [outcome(r) for r in executor.run_many(calls)]
        assert batch == one_at_a_time(calls, timeout=1.0)
        assert batch[2][:3] == ("error", None, "Timeout")
        assert batch[3][:2] == ("ok", 9)

    def test_partial_line_then_stall_mid_batch(self, tmp_path):
        command = scripted(tmp_path, [
            "sys.stdout.write('{\"status\"')", "sys.stdout.flush()", "time.sleep(60)"])
        calls = [("", "good", (1,)), ("", "stall", (1,)), ("", "good", (2,))]
        with ExternalExecutor(command, timeout=1.0) as executor:
            executor.run("", "warm", (1,))  # the child is up before the clock starts
            start = time.monotonic()
            batch = [outcome(r) for r in executor.run_many(calls)]
            assert time.monotonic() - start < 2.0
        assert batch == one_at_a_time(calls, command, timeout=1.0)
        assert [r[:3] for r in batch] == [
            ("ok", 7, None), ("error", None, "Timeout"), ("ok", 7, None)]

    @pytest.mark.parametrize("source, kind", [
        ("def f(a1):\n    while True:\n        pass", "Timeout"),
        ("import os\ndef f(a1):\n    os._exit(1)", "ExecutorCrashed"),
    ], ids=["hang", "crash"])
    def test_failure_with_backlog_beyond_the_pipe(self, source, kind):
        """A hung or dead child stops reading: the requests behind it fill
        the pipe, and writing them must not hold the batch past the
        timeout."""
        timeout = 1.0
        padding = "#" + "x" * 8000 + "\n"
        calls = [(source, "f", (1,))]
        calls += [(padding + f"def f(a1):\n    return a1 + {n}", "f", (1,))
                  for n in range(40)]
        assert sum(len(source) for source, *_ in calls) > 1 << 18
        with ExternalExecutor(timeout=timeout) as executor:
            executor.run("def f(a1):\n    return a1", "f", (1,))  # started
            start = time.monotonic()
            batch = list(executor.run_many(calls))
            elapsed = time.monotonic() - start
        assert elapsed < 2 * timeout
        assert (batch[0].status, batch[0].error_kind) == ("error", kind)
        assert [r.output for r in batch[1:]] == [1 + n for n in range(40)]

    def test_wrong_id_is_bad_response(self, tmp_path):
        command = scripted(tmp_path, [
            "print(json.dumps({'id': request['id'] + 1, 'status': 'ok',"
            " 'output_repr': '8'}), flush=True)"])
        calls = [("", "good", (1,)), ("", "bad", (1,)), ("", "good", (2,))]
        with ExternalExecutor(command, timeout=5.0) as executor:
            batch = [outcome(r) for r in executor.run_many(calls)]
        assert batch == one_at_a_time(calls, command, timeout=5.0)
        assert [r[:3] for r in batch] == [
            ("ok", 7, None), ("error", None, "BadResponse"), ("ok", 7, None)]

    def test_bundled_child_echoes_the_id(self):
        requests = [{"id": 7, "source": "def f(a1):\n    return a1", "function_name": "f",
                     "input": "1"}, "not json"]
        done = subprocess.run(
            [sys.executable, "-m", "mutexec.python_exec"], capture_output=True, timeout=30,
            input="".join(json.dumps(r) + "\n" for r in requests).encode())
        answers = [json.loads(line) for line in done.stdout.splitlines()]
        assert [a.get("id") for a in answers] == [7, None]
        assert answers[0]["output_repr"] == "1"
        assert answers[1]["error"]["kind"] == "ExecutorInternal"


def padded(n):
    """A call of about 1 KB whose answer is ``n + 1``."""
    return ("#" + "x" * 1000 + f"\ndef f(a1):\n    return a1 + {n}", "f", (1,))


class TestStream:
    """``run_many`` draws a call only when the child's pipe can take its
    request, and holds only the requests the child has not answered."""

    def test_draws_calls_as_the_pipe_takes_them(self):
        drawn = []

        def calls():
            for n in range(2000):
                drawn.append(n)
                yield padded(n)

        with ExternalExecutor(timeout=10.0) as executor:
            stream = executor.run_many(calls())
            first = next(stream)
            assert 0 < len(drawn) < 500  # 2 MB of requests; a pipe holds 64 KB
            results = [first, *stream]
        assert len(drawn) == 2000
        assert [outcome(r) for r in results] == one_at_a_time([padded(n) for n in range(2000)])

    @pytest.mark.parametrize("k", [1, 7])
    def test_closing_with_requests_unanswered_kills_the_child(self, forks, k):
        with ExternalExecutor(timeout=5.0) as executor:
            stream = executor.run_many(times(n) for n in range(50))
            assert [next(stream).output for _ in range(k)] == [3 * n for n in range(k)]
            stream.close()
            assert executor.proc is None
            assert_reaped(forks)
            again = executor.run(*times(7))
            assert (again.status, again.output) == ("ok", 21)
            assert executor.proc.pid == forks[-1]

    def test_one_stream_at_a_time(self, external):
        stream = external.run_many([times(1), times(2)])
        assert next(stream).output == 3
        with pytest.raises(RuntimeError, match="another stream"):
            external.run(*times(3))
        assert [r.output for r in stream] == [6]
        assert external.run(*times(3)).output == 9


class TestCompileCache:
    """The child compiles a source and parses an input once, but runs it
    into a fresh namespace, on new arguments, on every request."""

    @pytest.mark.parametrize("source, args, expected", [
        ("def f(x, acc=[]):\n    acc.append(x)\n    return len(acc)", (1,), 1),
        ("count = 0\ndef f(x):\n    global count\n    count += 1\n    return count", (1,), 1),
        ("def f(x):\n    x.append(1)\n    return len(x)", ([1],), 2),
        ("import sys\ndef g(n):\n    return 0 if n == 0 else 1 + g(n - 1)\n"
         "def f(x):\n    depth = g(300)\n"
         "    sys.setrecursionlimit(sys.getrecursionlimit() - 900)\n    return depth", (1,), 300),
    ], ids=["mutable-default", "module-counter", "mutated-argument", "recursion-limit"])
    def test_no_state_carries_over(self, source, args, expected):
        with ExternalExecutor(timeout=5.0) as executor:
            first = executor.run(source, "f", args)
            child = executor.proc
            results = [first] + list(executor.run_many([(source, "f", args)] * 2))
            assert executor.proc is child
        assert [(r.status, r.output) for r in results] == [("ok", expected)] * 3

    def test_syntax_error_reported_on_each_request(self):
        source = "def f(a1):\n    return a1 +\n"
        with ExternalExecutor(timeout=5.0) as executor:
            results = [executor.run(source, "f", (1,))]
            child = executor.proc
            results += list(executor.run_many([(source, "f", (1,))] * 2))
            assert executor.proc is child
        assert [(r.status, r.error_kind, r.error_line) for r in results] == [
            ("error", "SyntaxError", 2)] * 3


class TestCallThatNeverStarts:
    # a missing function or a wrong argument count fails before the first
    # line of the program runs: no covered lines, no steps, error line 0
    @pytest.mark.parametrize("function_name, args, kind", [
        ("g", ([1],), "NameError"),
        ("f", ([1], [2]), "TypeError"),
    ], ids=["missing_function", "wrong_argument_count"])
    def test_both_executors_agree(self, external, function_name, args, kind):
        source = "def f(a1):\n    return a1"
        expected = ("error", None, kind, 0, [], 0)
        assert outcome(BuiltinExecutor().run(source, function_name, args)) == expected
        assert outcome(external.run(source, function_name, args)) == expected


class TestFailureBeforeTheCall:
    # a module that does not compile, or a name that is no function: the
    # call never starts, so the host child covers no line and takes no step,
    # and the builtin executor agrees as its contract says
    @pytest.mark.parametrize("source, function_name", [
        ("def f(a1):\n    return a1 +\n", "f"),
        ("v1 = 1\ndef f(a1):\n    return a1\n", "v1"),
    ], ids=["module_does_not_compile", "name_is_not_a_function"])
    def test_both_executors_agree_on_every_field(self, external, source, function_name):
        assert outcome(external.run(source, function_name, (1,)))[4:] == ([], 0)
        assert contract_breaches([(source, function_name, (1,))], external) == []

    @pytest.mark.parametrize("source, kind, line", [
        ("def f(a1):\n    if a1:\n\treturn 1\n    return 2\n", "TabError", 3),
        ("def f(a1):\n    v1 = a1\n        return v1\n", "IndentationError", 3),
        ("def f(a1):\n    if a1:\n    return 1\n    return 2\n", "IndentationError", 3),
        ("def f(a1):\n    if a1:\n        v1 = 1\n      return v1\n", "IndentationError", 4),
        # a block missing at the end of the text: CPython names the text's last line
        ("def f(a1):", "IndentationError", 1),
        ("def f(a1):\n", "IndentationError", 1),
        ("def f(a1):\n    if a1:", "IndentationError", 2),
        ("def f(a1):\n    if a1:\n", "IndentationError", 2),
        ("def f(a1):\n    if a1:\n\n\n", "IndentationError", 4),
        ("def f(a1):\n    if a1:\n# c\n", "IndentationError", 3),
        ("def f(a1):\n    if a1:\n   ", "IndentationError", 3),
    ], ids=["tabs_and_spaces", "unexpected_indent", "missing_indent", "unmatched_dedent",
            "end_def", "end_def_newline", "end_if", "end_if_newline", "end_blank_lines",
            "end_comment", "end_blanks"])
    def test_indentation_faults_have_cpython_s_class(self, external, source, kind, line):
        assert outcome(external.run(source, "f", (1,))) == ("error", None, kind, line, [], 0)
        assert unsupported(answer(BuiltinExecutor().run(source, "f", (1,))))

    @pytest.mark.parametrize("source, line", [
        ("def f(a1):\r\n    if a1:\r\n", 2),
        ("def f(a1):\r\n    if a1:\r\n\r\n", 3),
    ], ids=["end_if", "end_blank_line"])
    def test_block_missing_at_the_end_of_crlf_text_as_in_python_3_12(self, external, source,
                                                                      line):
        # on CRLF text, CPython 3.10 and 3.11 name one line more than 3.12
        # and 3.13 do
        host = line + (sys.version_info < (3, 12))
        assert outcome(external.run(source, "f", (1,))) == (
            "error", None, "IndentationError", host, [], 0)
        assert unsupported(answer(BuiltinExecutor().run(source, "f", (1,))))


def nested(opener, depth):
    closer = {"(": ")", "[": "]"}[opener]
    return f"def f(a1):\n    return {opener * depth}a1{closer * depth}\n"


WRAPPED = ("def f(a1):\n    x = a1\n    for i in range({}):\n        x = [x]\n"
           "    return x\n")

# programs on which minipy and the host child once disagreed, the arguments
# of their call and the host child's answer (on Python 3.10-3.12, see
# host_answer)
CONTRACT_CASES = {
    "break_in_if": ("def f(a1):\n    if a1:\n        break\n    return 1\n", (0,),
                    ("error", None, "SyntaxError", 3, [], 0)),
    "module_return": ("def f(a1):\n    return a1\nreturn 2\n", (1,),
                      ("error", None, "SyntaxError", 3, [], 0)),
    "module_break": ("def f(a1):\n    return a1\nbreak\n", (1,),
                     ("error", None, "SyntaxError", 3, [], 0)),
    "break_in_def": ("def f(a1):\n    break\n", (1,),
                     ("error", None, "SyntaxError", 2, [], 0)),
    "break_in_a_def_in_a_loop": ("for i in range(2):\n    def f(a1):\n        continue\n",
                                 (1,), ("error", None, "SyntaxError", 3, [], 0)),
    "list_holds_itself": ("def f(a1):\n    a1.append(a1)\n    return a1", ([1],),
                          ("error", None, "UnrepresentableOutput", None, [2, 3], 2)),
    "wrapped_3000_times": (WRAPPED.format(3000), ([1],),
                           ("error", None, "UnrepresentableOutput", None, [2, 3, 4, 5], 6003)),
    "wrapped_199_times": (WRAPPED.format(199), ([1],),
                          ("ok", functools.reduce(lambda v, _: [v], range(199), [1]), None, None,
                           [2, 3, 4, 5], 401)),
    "wrapped_200_times": (WRAPPED.format(200), ([1],),
                          ("error", None, "UnrepresentableOutput", None, [2, 3, 4, 5], 403)),
    "parentheses_200": (nested("(", 200), (1,), ("ok", 1, None, None, [2], 1)),
    "parentheses_201": (nested("(", 201), (1,), ("error", None, "SyntaxError", 2, [], 0)),
    "parentheses_250": (nested("(", 250), (1,), ("error", None, "SyntaxError", 2, [], 0)),
    "parentheses_400": (nested("(", 400), (1,), ("error", None, "SyntaxError", 2, [], 0)),
    "parentheses_2000": (nested("(", 2000), (1,), ("error", None, "SyntaxError", 2, [], 0)),
    "list_display_400": (nested("[", 400), (1,), ("error", None, "SyntaxError", 2, [], 0)),
    "sum_of_3000_terms": ("def f(a1):\n    return " + " + ".join(["a1"] * 3000) + "\n", (1,),
                          ("error", None, "RecursionError", 0, [], 0)),
    "list_display_on_two_lines": ("def f(a1):\n    v1 = [a1,\n          a1 + 1]\n    return v1\n",
                                  (1,), ("ok", [1, 2], None, None, [2, 3, 4], 4)),
    "module_level_statement": ("N = [][0]\ndef f(a1):\n    return a1\n", (1,),
                               ("error", None, "IndexError", 1, [], 0)),
    "not_1000_times": ("def f(a1):\n    return " + "not " * 1000 + "a1\n", (1,),
                       ("ok", True, None, None, [2], 1)),
    "nested_def": ("def f(a1):\n    def g():\n        return 1\n    return a1\n", (1,),
                   ("ok", 1, None, None, [2, 4], 2)),
    # CPython reads a CR outside a CRLF as a line break; tokenize, whose
    # lines the scanner follows, skips a line that starts with one
    "lone_cr_starts_a_def": ("def f(a1):\n    return a1\n\rdef f(a1):\n    return 2\n", (1,),
                             ("ok", 2, None, None, [5], 1)),
    "lone_cr_starts_a_bad_line": ("def f(a1):\n    return a1\n\r    v1 = $$$\n", (1,),
                                  ("error", None, "SyntaxError", 4, [], 0)),
}
# the five that minipy still answered otherwise than the host child when
# its language was written down
FORMER_DISAGREEMENTS = ("list_display_on_two_lines", "module_level_statement", "not_1000_times",
                        "sum_of_3000_terms", "nested_def")


def host_answer(name, version=sys.version_info[:2]):
    """The host child's answer to ``CONTRACT_CASES[name]`` on Python
    ``version``: 3.13 compiles the sum of 3,000 terms, which the compilers
    of 3.10-3.12 give up on with a RecursionError."""
    if name == "sum_of_3000_terms" and version >= (3, 13):
        return ("ok", 3000, None, None, [2], 1)
    return CONTRACT_CASES[name][2]


# contest-style functions outside minipy's language, their arguments and
# their output
CONTEST = {
    "string_slices": ("def f(s):\n    return s[::-1] + s[1:3]\n", ("abcde",), "edcbabc"),
    "dict": ("def f(xs):\n    seen = {}\n    for x in xs:\n        seen[x] = seen.get(x, 0) + 1\n"
             "    return max(seen.values())\n", ([1, 2, 2, 3, 2],), 3),
    "sorted_with_a_key": ("def f(words):\n    return sorted(words, key=lambda w: (len(w), w))\n",
                          (["bb", "a", "ccc", "ab"],), ["a", "ab", "bb", "ccc"]),
    "comprehension": ("def f(n):\n    return [i * i for i in range(n) if i % 2]\n", (7,),
                      [1, 9, 25]),
    "while_break": ("def f(n):\n    i = 0\n    while True:\n        if i * i > n:\n"
                    "            break\n        i += 1\n    return i\n", (50,), 8),
    "import": ("import math\ndef f(a, b):\n    return math.gcd(a, b)\n", (12, 18), 6),
}
# one argument tuple of each arity for the texts that name no input
ARGUMENTS = ((1,), ([1, 2],), ([1, 2], 1))


def uses_loop_jumps(source):
    return re.search(r"\b(while|break|continue)\b", source) is not None


def problem_calls(problems):
    """The run of each problem and of each of its mutant candidates."""
    calls = []
    for problem in problems:
        args = problem.args()
        calls.append((problem.source, problem.function_name, args))
        calls.extend((mutant, problem.function_name, args)
                     for mutant, _ in enumerate_source_mutants(problem.source))
    return calls


@pytest.fixture(scope="module")
def fresh_build():
    """A small build of every (arity, depth) combination, a1d4 to a2d5,
    with the sampler as it is now."""
    return build_dsl_list(DslListConfig(seed=5, programs_per_combo=15, per_bin=30,
                                        bins=((1, 1000),)))


class TestContract:
    """The builtin executor's contract: the two executors agree on a program
    when the builtin answer is ``Unsupported`` (no covered lines, 0 steps)
    or, field by field, the host child's answer."""

    @pytest.mark.parametrize("name", CONTRACT_CASES)
    def test_both_executors_agree_on_every_field(self, external, name):
        source, args, _ = CONTRACT_CASES[name]
        assert outcome(external.run(source, "f", args)) == host_answer(name)
        assert contract_breaches([(source, "f", args)], external) == []

    def test_former_disagreements_are_unsupported(self):
        for name in FORMER_DISAGREEMENTS:
            source, args, _ = CONTRACT_CASES[name]
            assert unsupported(answer(BuiltinExecutor().run(source, "f", args))), name

    def test_contest_code_runs_only_in_the_host_child(self, external):
        calls = [(source, "f", args) for source, args, _ in CONTEST.values()]
        assert [answer(r)[:2] for r in external.run_many(calls)] == [
            ("ok", canonical_repr(output)) for _, _, output in CONTEST.values()]
        assert all(unsupported(answer(BuiltinExecutor().run(*call))) for call in calls)

    def test_a_limit_is_where_a_program_of_the_language_may_differ(self, external):
        # minipy's limits: StepLimitExceeded, ListLimitExceeded,
        # OverflowError past 64-bit integers as here, and RecursionError at
        # line 0 on a value nested too deeply for its stack
        source = "def f(a1):\n    return a1 * a1 * a1\n"
        assert outcome(BuiltinExecutor().run(source, "f", (2**40,))) == (
            "error", None, "OverflowError", 2, [2], 1)
        assert outcome(external.run(source, "f", (2**40,))) == (
            "ok", 2**120, None, None, [2], 1)

    def test_builtin_run_raises_nothing(self, lexer_corpus):
        executor = BuiltinExecutor()
        deep = [source for source, _, _ in CONTRACT_CASES.values()]
        for source in [*lexer_corpus, *random_texts(9, 3000), *deep]:
            for args in ARGUMENTS:
                assert isinstance(executor.run(source, "f", args), minipy.ExecResult), source


def differential_cases():
    with open(fixture_path("differential.jsonl")) as fh:
        entries = [json.loads(line) for line in fh if line.strip()]
    return [(e["source"], e["function_name"], parse_args(e["input"])) for e in entries]


RECURSES = ("def g(n):\n    try:\n        return g(n + 1)\n"
            "    except RecursionError:\n        return n\n", "g", (0,))
# the bundled child as a command: started, never forked
SPAWNED = f"{shlex.quote(sys.executable)} -m mutexec.python_exec"


def deeper(frames, fn):
    """``fn()`` called ``frames`` frames below this one."""
    return deeper(frames - 1, fn) if frames else fn()


def forked_outcomes(calls, timeout=10.0):
    """The outcomes of ``calls`` from a bundled executor whose child this
    process forked."""
    with ExternalExecutor(timeout=timeout) as executor:
        results = list(executor.run_many(calls))
        assert not isinstance(executor.proc, subprocess.Popen)
    return [outcome(r) for r in results]


def spawned_outcomes(calls, timeout=10.0):
    with ExternalExecutor(SPAWNED, timeout=timeout) as executor:
        return [outcome(r) for r in executor.run_many(calls)]


class TestForkedChild:
    """A bundled child forked from a single-threaded caller answers every
    request as a spawned ``python -m mutexec.python_exec`` does."""

    def test_differential_cases(self):
        calls = differential_cases()
        assert forked_outcomes(calls) == spawned_outcomes(calls)

    def test_recursion_depth_does_not_depend_on_the_caller(self):
        spawned = spawned_outcomes([RECURSES])
        assert spawned[0][0] == "ok" and spawned[0][1] > 900
        assert forked_outcomes([RECURSES]) == spawned
        assert deeper(50, lambda: forked_outcomes([RECURSES])) == spawned

    @pytest.mark.parametrize("source", [
        "def f(a1):\n    print(a1)\n    return a1 + 1",
        "import sys\ndef f(a1):\n    sys.stderr.write('x')\n    return a1 + 1",
        "def f(a1):\n    return input()",
        "import sys\ndef f(a1):\n    return sys.stdin.read()",
        "def f(a1):\n    return a1 is 1",
        "import warnings\ndef f(a1):\n    warnings.warn('w')\n    return a1",
        "import sys\ndef f(a1):\n    return [sys.gettrace() is None, sys.getprofile() is None]",
        "import sys\ndef f(a1):\n    return sys.argv",
        "import os\ndef f(a1):\n    return sorted(os.listdir('/proc/self/fd'))",
    ], ids=["print", "stderr", "input", "stdin-read", "syntax-warning", "user-warning",
            "no-hooks", "argv", "open-fds"])
    def test_program_io_and_warnings(self, source):
        calls = [(source, "f", (1,)), times(2)]
        profiler = cProfile.Profile()  # a hook that a RecursionError does not unset
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            profiler.enable()
            try:
                forked = forked_outcomes(calls)
            finally:
                profiler.disable()
        assert forked == spawned_outcomes(calls)
        assert forked[1][:2] == ("ok", 6)

    def test_programs_compile_without_the_child_s_future_imports(self):
        source = ("def f(a1):\n    def g(x: int):\n        return x\n"
                  "    return str(g.__annotations__)")
        namespace = {}
        exec(compile(source, "<host>", "exec", dont_inherit=True), namespace)
        host = namespace["f"](1)
        assert host == str({"x": int})
        assert forked_outcomes([(source, "f", (1,))])[0][:2] == ("ok", host)
        assert spawned_outcomes([(source, "f", (1,))])[0][:2] == ("ok", host)

    @pytest.mark.parametrize("command", [None, SPAWNED], ids=["forked", "started"])
    @pytest.mark.parametrize("source, kind, line", [
        ("import sys\ndef f(a1):\n    sys.exit(0)", "SystemExit", 3),
        ("def f(a1):\n    raise SystemExit(3)", "SystemExit", 2),
        ("def f(a1):\n    raise KeyboardInterrupt", "KeyboardInterrupt", 2),
    ], ids=["sys.exit", "SystemExit", "KeyboardInterrupt"])
    def test_a_program_s_exit_is_its_error(self, command, source, kind, line):
        with ExternalExecutor(command, timeout=5.0) as executor:
            executor.run(*times(1))
            child = executor.proc
            exited = executor.run(source, "f", (1,))
            again = executor.run(*times(2))
            assert executor.proc is child
        assert outcome(exited) == ("error", None, kind, line, [line], 1)
        assert (again.status, again.output) == ("ok", 6)

    def test_threads_spawn(self, forks):
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            with ExternalExecutor(timeout=5.0) as executor:
                result = executor.run(*times(2))
                assert isinstance(executor.proc, subprocess.Popen)
        finally:
            release.set()
            thread.join(timeout=10)
        assert (result.status, result.output) == ("ok", 6)
        assert forks == []

    @pytest.mark.parametrize("source, timeout, kind", [
        ("def f(a1):\n    while True:\n        pass", 1.0, "Timeout"),
        ("import os\ndef f(a1):\n    os._exit(3)", 5.0, "ExecutorCrashed"),
    ], ids=["hang", "exit"])
    def test_failure_then_a_fresh_forked_child(self, forks, source, timeout, kind):
        with ExternalExecutor(timeout=timeout) as executor:
            failed = executor.run(source, "f", (1,))
            again = executor.run(*times(2))
            assert executor.proc.pid == forks[-1]
        assert (failed.status, failed.error_kind) == ("error", kind)
        assert (again.status, again.output) == ("ok", 6)
        assert len(forks) == 2
        assert_reaped(forks)

    def test_close_reaps(self, forks):
        executor = ExternalExecutor(timeout=5.0)
        assert executor.run(*times(2)).output == 6
        assert forks == [executor.proc.pid]
        executor.close()
        assert executor.proc is None
        assert_reaped(forks)

    def test_unflushed_output_of_the_caller_is_written_once(self):
        script = (
            "from mutexec.executors import ExternalExecutor\n"
            "print('before')\n"
            "with ExternalExecutor(timeout=5.0) as executor:\n"
            "    results = list(executor.run_many([\n"
            "        ('def f(a1):\\n    print(a1)\\n    return a1', 'f', (1,)),\n"
            "        ('import os\\ndef f(a1):\\n    os._exit(1)', 'f', (1,)),\n"
            "        ('def f(a1):\\n    return a1 + 1', 'f', (1,))]))\n"
            "    print(type(executor.proc).__name__)\n"
            "print([r.output for r in results])\n")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(executors.__file__))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == "before\nChild\n[1, None, 2]\n"

    @pytest.mark.parametrize("safe_path", ["", "1"], ids=["default", "PYTHONSAFEPATH"])
    def test_path_of_a_python_c_caller(self, tmp_path, safe_path):
        # ``python -c`` puts "" first on sys.path, ``python -m`` the working
        # directory; a forked child sets it as a started one does
        script = (
            "import sys\n"
            "from mutexec.executors import ExternalExecutor\n"
            "call = ('import sys\\ndef f(a1):\\n    return sys.path[0]', 'f', (1,))\n"
            "with ExternalExecutor() as forked, ExternalExecutor(\n"
            "        [sys.executable, '-m', 'mutexec.python_exec']) as started:\n"
            "    print(forked.run(*call).output)\n"
            "    print(started.run(*call).output)\n"
            "    print(type(forked.proc).__name__)\n")
        src = os.path.dirname(os.path.dirname(executors.__file__))
        env = {**os.environ, "PYTHONPATH": src, "PYTHONSAFEPATH": safe_path}
        done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        forked, started, name = done.stdout.splitlines()
        assert name == "Child"
        assert forked == started == (src if safe_path else str(tmp_path))

    def test_holds_no_fd_of_its_caller(self):
        read_fd, write_fd = os.pipe()
        try:
            source = ("import os\ndef f(a1):\n    try:\n        os.fstat(a1)\n"
                      "    except OSError:\n        return False\n    return True")
            assert forked_outcomes([(source, "f", (read_fd,))])[0][:2] == ("ok", False)
        finally:
            os.close(read_fd)
            os.close(write_fd)


class TestDifferential:
    def test_fixture_size(self):
        with open(fixture_path("differential.jsonl")) as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        assert len(entries) >= 50

    def test_minipy_matches_reference_executor(self, external, lexer_corpus, small_corpus,
                                               fresh_build):
        """The one contract: on every program, the builtin answer is
        ``Unsupported`` or the host child's on all six fields.  The programs
        are the lexer corpus, random texts, the contract cases, contest-style
        functions, the differential fixture, the runs of the small corpus,
        of a fresh build and of all their mutant candidates (not only the
        survivors: mutant selection reads coverage), and the translation of
        every derivation of the depth-3 grammars of arities 1 and 2."""
        translations = [*problem_calls([*small_corpus, *fresh_build]), *typed_term_calls(3)]
        differential = differential_cases()
        calls = [
            *translations, *differential,
            *((source, "f", args) for source, args, _ in CONTRACT_CASES.values()),
            *((source, "f", args) for source, args, _ in CONTEST.values()),
            *((source, "f", args) for source in lexer_corpus for args in ARGUMENTS),
            *((source, "f", (1,)) for source in random_texts(9, 3000)),
        ]
        breaches = contract_breaches(calls, external)
        assert not breaches, breaches[:3]
        # every translation and mutant is in the language, and in the
        # fixture exactly the programs with loop jumps are not
        builtin = BuiltinExecutor()
        assert not [call for call in translations if unsupported(answer(builtin.run(*call)))]
        declined = [call for call in differential if unsupported(answer(builtin.run(*call)))]
        assert declined == [call for call in differential if uses_loop_jumps(call[0])]
        assert len(declined) == 8

    def test_external_mutant_set_equals_builtin(self, small_corpus):
        problems = small_corpus[:30]
        with ExternalExecutor() as executor:
            external = mutate_dataset(problems, executor, seed=4)
        builtin = mutate_dataset(problems, BuiltinExecutor(), seed=4)
        assert len(builtin[1]) > 10
        as_bytes = [[json.dumps(p.to_json()) for p in ps] for ps in (*external, *builtin)]
        assert as_bytes[:2] == as_bytes[2:]
