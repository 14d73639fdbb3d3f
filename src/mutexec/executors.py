"""Program executors: the in-process interpreter and the subprocess bridge.

Both speak the same in-process contract: ``run(source, function_name,
args)`` returning an ExecResult, and ``run_many(calls)``, a stream that
takes any iterable of such ``(source, function_name, args)`` calls and
yields their results in order, drawing a call only when it is run (the
builtin) or written to the child (the external).
Every result carries its covered lines and its ``steps``, the count of line
events CPython's line tracer reports (a statement starts, or a loop body
goes back to its header).

``BuiltinExecutor`` runs the language of ``minipy``, and raises nothing.  For
a program inside it, its result has the six fields the host child gives
(status, output, error kind, error line, covered lines and steps), unless
one of minipy's limits stops the run: ``StepLimitExceeded``,
``ListLimitExceeded``, ``OverflowError``, or ``RecursionError`` at line 0 on
a value nested too deeply for this process's stack.  An ``ok`` output whose
canonical text does not parse back (``values.parses_back``: a list that
holds itself, or lists nested more than 200 deep) is kind
"UnrepresentableOutput" with its covered lines and steps, as the child's
answer is read.  For any other program it gives one result: status
"error", kind "Unsupported", the line where minipy stopped, no covered
lines and 0 steps.

The external executor runs any Python program in a child process, one JSON
request per line on stdin and one JSON response per line on stdout:

    request:  {"id": int, "source": str, "function_name": str, "input": str}
    response: {"id": int, "status": "ok"|"error", "output_repr": str|null,
               "covered_lines": [int]|null, "steps": int|null,
               "error": {"kind": str, "line": int}|null}

``id`` counts the requests sent to one child from 0; a child that echoes it
has each answer checked against its request, and one that sends none is
trusted to answer in order.  ``run_many`` writes requests ahead of their
answers: it encodes and writes the next request whenever the child's pipe
can take it, so the pipe's capacity is how far it runs ahead, and it holds
only the requests written and not yet answered.  So the child must answer
each line as soon as it has read it.  ``input`` is ``format_args`` of the
argument tuple.  ``output_repr`` may be any literal text; a value it parses
to that has no ``canonical_repr`` (bytes, complex, inf, nan) is kind
"UnrepresentableOutput".  A child may leave out ``covered_lines`` and
``steps``; the result then reports no covered lines and ``steps`` None.  A
request whose whole response line has not arrived within the timeout of the
previous answer kills the child and reports kind "Timeout"; the unanswered
requests after it are resent to a fresh child.  A response that is not a
JSON object, answers another ``id`` or has a field of the wrong type kills
the child too and reports kind "BadResponse".  So each result of a stream
equals what ``run`` of that call alone gives.  A stream closed with requests
unanswered kills the child, so no later request reads a stale answer.  An
executor serves one stream at a time: starting a second before the first
ends raises RuntimeError.  The first request is a probe with an empty source
and function name; a command whose child does not answer it with a
well-formed response raises RuntimeError from ``run`` or the stream.

The bundled child (no command given) is forked from this process when it
has one thread (``forking.may_fork``): a ``forking.Child`` whose program,
``python_exec.serve_forked``, runs ``python_exec.main`` made to answer
every request as a started ``python -m mutexec.python_exec`` would.  It
shares this process's hash secret, as a started child does when
``PYTHONHASHSEED`` is set.  A custom command, or a caller with more than one
thread, starts its child with ``subprocess``.
"""

from __future__ import annotations

import itertools
import json
import os
import selectors
import sys
import time
from collections import deque

from . import minipy
from .forking import Child, may_fork
from .values import canonical_repr, format_args, parse_literal, parses_back

DEFAULT_TIMEOUT = 10.0
PROBE = {"source": "", "function_name": "", "input": ""}


def _body(request: dict) -> bytes:
    """A request's line without its opening brace, to follow an ``id``."""
    return (json.dumps(request)[1:] + "\n").encode()


class BuiltinExecutor:
    """Runs programs of minipy's language with its tree-walking interpreter,
    and answers "Unsupported" to any other."""

    def __init__(self):
        self._cache: dict[str, minipy.Module] = {}

    def run(self, source: str, function_name: str, args: tuple) -> minipy.ExecResult:
        try:
            module = self._cache.get(source)
            if module is None:
                module = minipy.parse(source)
                if len(self._cache) > 4096:
                    self._cache.clear()
                self._cache[source] = module
            result = minipy.interpret(module, args, function_name=function_name)
        except minipy.ParseError as exc:
            return minipy.ExecResult("error", error_kind="Unsupported", error_line=exc.line)
        except RecursionError:  # a value nested too deeply for this stack
            return minipy.ExecResult("error", error_kind="RecursionError", error_line=0)
        if result.status == "ok" and not parses_back(result.output):
            return minipy.ExecResult("error", covered_lines=result.covered_lines,
                                     steps=result.steps, error_kind="UnrepresentableOutput")
        return result

    def run_many(self, calls):
        return (self.run(*call) for call in calls)

    def close(self):
        pass


class ExternalExecutor:
    """Bridges to a child-process executor over JSON lines."""

    def __init__(self, command: list[str] | str | None = None,
                 timeout: float = DEFAULT_TIMEOUT):
        self.bundled = command is None
        if self.bundled:
            command = [sys.executable, "-m", "mutexec.python_exec"]
        elif isinstance(command, str):
            import shlex

            command = shlex.split(command)
        if not command:
            raise ValueError("the executor command is empty")
        if not 0 < timeout < float("inf"):
            raise ValueError(
                f"timeout must be a positive, finite number of seconds, got {timeout!r}")
        self.command = command
        self.timeout = timeout
        self.proc = None  # the child: a subprocess.Popen or a forking.Child
        self._probed = False  # a child of this command has answered the probe
        self._next_id = 0  # the id of the next request to this child
        self._streaming = False  # a stream of ``run_many`` is open
        # bytes the child wrote past its last complete line; read from the
        # raw pipe, never through proc.stdout's own buffer
        self._pending = bytearray()

    def _ensure(self):
        if self.proc is None or self.proc.poll() is not None:
            self._pending.clear()
            self._next_id = 0
            if self.bundled and may_fork():
                from . import python_exec

                self.proc = Child(python_exec.serve_forked)
            else:
                import subprocess

                self.proc = subprocess.Popen(
                    self.command,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.DEVNULL,
                )
            # requests are written to the raw fd, and a full pipe must not
            # block a write past the timeout
            os.set_blocking(self.proc.stdin.fileno(), False)
        return self.proc

    def _kill(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdin.close()
            self.proc.stdout.close()
            self.proc = None
        self._pending.clear()

    def _answers(self, bodies, unanswered: deque):
        """Write the request bodies that the iterator ``bodies`` yields to
        the child ahead of their answers, drawing the next one whenever the
        pipe can take it, and yield ``(id, line)`` for each request in
        order.  ``unanswered`` holds ``(id, body)`` of each request whose
        writing has started, oldest first; a request leaves it as its
        answer is yielded.  ``line`` is None if it is not complete within
        the timeout, counted from the previous answer, and b"" if the
        child's output ends first or the child cannot take the request;
        nothing is yielded after either.  No requests start no child."""
        body = next(bodies, None)
        if body is None:
            return
        bodies = itertools.chain([body], bodies)
        proc = self._ensure()
        in_fd, out_fd = proc.stdin.fileno(), proc.stdout.fileno()
        pending = self._pending
        out = memoryview(b"")  # the unwritten rest of the newest request
        writing, broken = True, False
        scanned = 0  # pending holds no line break before this offset
        deadline = None  # for the oldest unanswered request's answer
        with selectors.DefaultSelector() as sel:
            sel.register(out_fd, selectors.EVENT_READ)
            sel.register(in_fd, selectors.EVENT_WRITE)
            while True:
                while writing:  # as far as the pipe takes the requests
                    if not out:
                        body = next(bodies, None)
                        if body is None:
                            writing = False
                            sel.unregister(in_fd)
                            break
                        unanswered.append((self._next_id, body))
                        out = memoryview(b'{"id": %d, ' % self._next_id + body)
                        self._next_id += 1
                    try:
                        out = out[os.write(in_fd, out):]
                    except BlockingIOError:
                        break
                    except OSError:  # the child closed its input
                        writing, broken = False, True
                        sel.unregister(in_fd)
                        break
                    if out:
                        break
                if not unanswered:
                    return
                end = pending.find(b"\n", scanned)
                if end >= 0:
                    line = bytes(pending[:end + 1])
                    del pending[:end + 1]
                    scanned, deadline = 0, None
                    yield unanswered.popleft()[0], line
                    continue
                scanned = len(pending)
                if broken and len(unanswered) == 1 and out:  # never wholly written
                    yield unanswered.popleft()[0], b""
                    return
                if deadline is None:
                    deadline = time.monotonic() + self.timeout
                remaining = deadline - time.monotonic()
                events = sel.select(remaining) if remaining > 0 else []
                if not events:
                    yield unanswered.popleft()[0], None
                    return
                if any(key.fd == out_fd for key, _ in events):
                    chunk = os.read(out_fd, 1 << 16)
                    if not chunk:
                        yield unanswered.popleft()[0], b""
                        return
                    pending += chunk

    def _probe(self) -> None:
        [(request_id, line)] = self._answers(iter([_body(PROBE)]), deque())
        if line and self._to_result(line, request_id) is not None:
            self._probed = True
            return
        proc = self.proc
        if line == b"":  # an ended child reports its exit status
            deadline = time.monotonic() + self.timeout
            while proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.01)
        self._kill()
        why = (f"no answer within {self.timeout:g} s" if line is None
               else f"its output ended, exit status {proc.returncode}" if not line
               else "a malformed answer")
        import shlex

        raise RuntimeError(
            f"executor command {shlex.join(self.command)} failed its start-up probe: {why}")

    def run(self, source: str, function_name: str, args: tuple) -> minipy.ExecResult:
        [result] = self.run_many([(source, function_name, args)])
        return result

    def run_many(self, calls):
        """Yield the results of the ``(source, function_name, args)``
        calls in order, each equal to what ``run`` of that call alone
        gives: after a request that times out, ends the child's output or
        is answered badly, the child is killed and the unanswered requests
        after it go to a fresh one.  Closing the stream with requests
        unanswered kills the child."""
        if self._streaming:
            raise RuntimeError("the executor is serving another stream of requests")
        self._streaming = True
        unanswered: deque = deque()  # (id, body) of the requests the child holds
        answers = None
        try:
            if not self._probed:
                self._probe()
            bodies = (_body({"source": source, "function_name": function_name,
                             "input": format_args(args)})
                      for source, function_name, args in calls)
            while True:
                answers = self._answers(bodies, unanswered)
                for request_id, line in answers:
                    result = self._to_result(line, request_id) if line else None
                    if result is None:
                        break
                    yield result
                else:
                    return
                answers.close()
                self._kill()
                bodies = itertools.chain([body for _, body in unanswered], bodies)
                unanswered.clear()
                yield minipy.ExecResult("error", error_kind=(
                    "Timeout" if line is None else
                    "ExecutorCrashed" if not line else "BadResponse"))
        finally:
            if answers is not None:
                answers.close()
            if unanswered:
                self._kill()
            self._streaming = False

    @staticmethod
    def _to_result(line: bytes, request_id: int) -> minipy.ExecResult | None:
        """The result a response line reports, or None if it is no JSON
        object, answers another request's ``id`` or one of its fields has
        the wrong type."""
        try:
            response = json.loads(line)
        except (ValueError, RecursionError):  # not JSON, not UTF-8, or nested too deeply
            return None
        if not isinstance(response, dict):
            return None
        answered = response.get("id", request_id)
        if type(answered) is not int or answered != request_id:
            return None
        covered = response.get("covered_lines") or []
        steps = response.get("steps")
        if not isinstance(covered, list) or not all(type(n) is int for n in covered):
            return None
        if steps is not None and type(steps) is not int:
            return None
        if response.get("status") == "ok":
            output_repr = response.get("output_repr", "None")
            if not isinstance(output_repr, str):
                return None
            try:
                output = parse_literal(output_repr)
                canonical_repr(output)
            except (ValueError, TypeError):
                return minipy.ExecResult(
                    "error", covered_lines=set(covered), steps=steps,
                    error_kind="UnrepresentableOutput",
                )
            return minipy.ExecResult("ok", output, set(covered), steps)
        error = response.get("error") or {}
        if not isinstance(error, dict):
            return None
        kind = error.get("kind", "Unknown")
        line = error.get("line")
        if not isinstance(kind, str) or not (line is None or type(line) is int):
            return None
        return minipy.ExecResult(
            "error", covered_lines=set(covered), steps=steps, error_kind=kind, error_line=line,
        )

    def close(self):
        self._kill()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
