"""Program executors: the in-process interpreter and the subprocess bridge.

Both speak the same in-process contract: ``run(source, function_name,
args)`` returning an ExecResult, and ``run_many(calls)`` returning the
results of a list of such ``(source, function_name, args)`` calls in order.
Every result carries its covered lines and its ``steps``, the count of line
events CPython's line tracer reports (a statement starts, or a loop body
goes back to its header), so one call gives one result whichever executor
runs it.  The external executor hosts programs the mini-language cannot run
(anything with strings, dicts, imports, ...) in a child process, one JSON
request per line on stdin and one JSON response per line on stdout:

    request:  {"id": int, "source": str, "function_name": str, "input": str}
    response: {"id": int, "status": "ok"|"error", "output_repr": str|null,
               "covered_lines": [int]|null, "steps": int|null,
               "error": {"kind": str, "line": int}|null}

``id`` counts the requests sent to one child from 0; a child that echoes it
has each answer checked against its request, and one that sends none is
trusted to answer in order.  ``run_many`` writes a batch's requests ahead of
their answers, as far as the pipe takes them, so the child must answer each
line as soon as it has read it.  ``input`` is ``format_args`` of the
argument tuple.  ``output_repr`` may be any literal text; a value it parses
to that has no ``canonical_repr`` (bytes, complex, inf, nan) is kind
"UnrepresentableOutput".  A child may leave out ``covered_lines`` and
``steps``; the result then reports no covered lines and ``steps`` None.  A
request whose whole response line has not arrived within the timeout of the
previous answer kills the child and reports kind "Timeout"; the requests
after it go to a fresh child.  A response that is not a JSON object,
answers another ``id`` or has a field of the wrong type kills the child too
and reports kind "BadResponse".  So each result of a batch equals what
``run`` of that call alone gives.  The first request is a probe with an empty source and
function name; a command whose child does not answer it with a well-formed
response raises RuntimeError from ``run`` or ``run_many``.

The bundled child (no command given) is forked from this process when it
has one thread (``forking.may_fork``) and runs ``python_exec.main`` on two
pipes (``python_exec.serve_forked``), made to answer every request as a
started ``python -m mutexec.python_exec`` would.  It shares this process's
hash secret, as a started child does when ``PYTHONHASHSEED`` is set.  A
custom command, or a caller with more than one thread, starts its child with
``subprocess``.
"""

from __future__ import annotations

import itertools
import json
import os
import selectors
import signal
import sys
import time
from . import minipy
from .forking import may_fork
from .values import canonical_repr, format_args, parse_literal

DEFAULT_TIMEOUT = 10.0
PROBE = {"source": "", "function_name": "", "input": ""}


def _body(request: dict) -> bytes:
    """A request's line without its opening brace, to follow an ``id``."""
    return (json.dumps(request)[1:] + "\n").encode()


class BuiltinExecutor:
    """Runs mini-language programs with the tree-walking interpreter."""

    def __init__(self):
        self._cache: dict[str, minipy.Module] = {}

    def run(self, source: str, function_name: str, args: tuple) -> minipy.ExecResult:
        module = self._cache.get(source)
        if module is None:
            try:
                module = minipy.parse(source)
            except minipy.ParseError as exc:
                return minipy.ExecResult(
                    "error", error_kind="SyntaxError", error_line=exc.line
                )
            if len(self._cache) > 4096:
                self._cache.clear()
            self._cache[source] = module
        return minipy.interpret(module, args, function_name=function_name)

    def run_many(self, calls) -> list[minipy.ExecResult]:
        return [self.run(*call) for call in calls]

    def close(self):
        pass


class _ForkedChild:
    """The bundled child forked from this process: ``python_exec.main`` on
    two pipes, with the part of ``subprocess.Popen``'s interface that the
    executor uses."""

    def __init__(self):
        from . import python_exec

        requests_r, requests_w = os.pipe()
        responses_r, responses_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (requests_r, requests_w, responses_r, responses_w):
                os.close(fd)
            raise
        if self.pid == 0:
            python_exec.serve_forked(requests_r, responses_w)  # never returns
        os.close(requests_r)
        os.close(responses_w)
        self.returncode: int | None = None
        self.stdin = open(requests_w, "wb")
        self.stdout = open(responses_r, "rb")

    def _reap(self, flags: int) -> None:
        try:
            pid, status = os.waitpid(self.pid, flags)
        except ChildProcessError:  # reaped elsewhere, as Popen takes it
            pid, status = self.pid, 0
        if pid:
            self.returncode = os.waitstatus_to_exitcode(status)

    def poll(self) -> int | None:
        if self.returncode is None:
            self._reap(os.WNOHANG)
        return self.returncode

    def wait(self) -> int:
        if self.returncode is None:
            self._reap(0)
        return self.returncode

    def kill(self) -> None:
        if self.returncode is None:
            os.kill(self.pid, signal.SIGKILL)


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
        self.proc = None  # the child: a subprocess.Popen or a _ForkedChild
        self._probed = False  # a child of this command has answered the probe
        self._next_id = 0  # the id of the next request to this child
        # bytes the child wrote past its last complete line; read from the
        # raw pipe, never through proc.stdout's own buffer
        self._pending = bytearray()

    def _ensure(self):
        if self.proc is None or self.proc.poll() is not None:
            self._pending.clear()
            self._next_id = 0
            if self.bundled and may_fork():
                self.proc = _ForkedChild()
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

    def _answers(self, bodies: list[bytes]):
        """Write the requests to the child ahead of their answers, and yield
        ``(id, line)`` for each request in order.  ``line`` is None if it is
        not complete within the timeout, counted from the previous answer,
        and b"" if the child's output ends first or the child cannot take
        the request; nothing is yielded after either."""
        proc = self._ensure()
        first = self._next_id
        self._next_id += len(bodies)
        lines = [b'{"id": %d, ' % (first + k) + body for k, body in enumerate(bodies)]
        ends = list(itertools.accumulate(map(len, lines)))
        out = memoryview(b"".join(lines))
        in_fd, out_fd = proc.stdin.fileno(), proc.stdout.fileno()
        pending = self._pending
        written, broken = 0, False
        with selectors.DefaultSelector() as sel:
            sel.register(out_fd, selectors.EVENT_READ)
            sel.register(in_fd, selectors.EVENT_WRITE)
            for k, request_end in enumerate(ends):
                deadline = time.monotonic() + self.timeout
                end = pending.find(b"\n")
                while end < 0:
                    if broken and written < request_end:
                        yield first + k, b""
                        return
                    remaining = deadline - time.monotonic()
                    events = sel.select(remaining) if remaining > 0 else []
                    if not events:
                        yield first + k, None
                        return
                    for key, _ in events:
                        if key.fd == in_fd:
                            try:
                                written += os.write(in_fd, out[written:])
                            except BlockingIOError:
                                continue
                            except OSError:  # the child closed its input
                                broken = True
                            if broken or written == len(out):
                                sel.unregister(in_fd)
                            continue
                        chunk = os.read(out_fd, 1 << 16)
                        if not chunk:
                            yield first + k, b""
                            return
                        start = len(pending)
                        pending += chunk
                        end = pending.find(b"\n", start)
                line = bytes(pending[:end + 1])
                del pending[:end + 1]
                yield first + k, line

    def _probe(self) -> None:
        [(request_id, line)] = self._answers([_body(PROBE)])
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
        return self.run_many([(source, function_name, args)])[0]

    def run_many(self, calls) -> list[minipy.ExecResult]:
        """The results of ``(source, function_name, args)`` calls in
        order, each equal to what ``run`` of that call alone gives: after a
        request that times out, ends the child's output or is answered
        badly, the child is killed and the rest go to a fresh one."""
        if not self._probed:
            self._probe()
        bodies = [_body({"source": source, "function_name": function_name,
                         "input": format_args(args)})
                  for source, function_name, args in calls]
        results: list[minipy.ExecResult] = []
        while len(results) < len(bodies):
            answers = self._answers(bodies[len(results):])
            for request_id, line in answers:
                result = self._to_result(line, request_id) if line else None
                if result is None:
                    answers.close()
                    self._kill()
                    kind = ("Timeout" if line is None else
                            "ExecutorCrashed" if not line else "BadResponse")
                    results.append(minipy.ExecResult("error", error_kind=kind))
                    break
                results.append(result)
        return results

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
