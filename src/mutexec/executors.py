"""Program executors: the in-process interpreter and the subprocess bridge.

Both speak the same in-process contract: ``run(source, function_name, args,
trace=False)`` returning an ExecResult.  The external executor hosts programs
the mini-language cannot run (anything with strings, dicts, imports, ...) in
a child process, one JSON request per line on stdin and one JSON response per
line on stdout:

    request:  {"source": str, "function_name": str, "input": str, "trace": bool}
    response: {"status": "ok"|"error", "output_repr": str|null,
               "covered_lines": [int]|null, "steps": int|null,
               "error": {"kind": str, "line": int}|null}

``input`` and ``output_repr`` use the canonical literal text of values.py.
A request whose whole response line has not arrived within the timeout
kills the child (a fresh one is spawned for the next request) and reports
kind "Timeout".  A response that is not a JSON object, or whose fields have
the wrong type, kills the child too and reports kind "BadResponse".
"""

from __future__ import annotations

import json
import os
import selectors
import shlex
import subprocess
import sys
import time
from . import minipy
from .values import format_args, parse_literal

DEFAULT_TIMEOUT = 10.0


class BuiltinExecutor:
    """Runs mini-language programs with the tree-walking interpreter."""

    def __init__(self, limits: minipy.Limits | None = None):
        self.limits = limits or minipy.Limits()
        self._cache: dict[str, minipy.Module] = {}

    def run(self, source: str, function_name: str, args: tuple, trace: bool = False):
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
        return minipy.interpret(module, args, self.limits, function_name)

    def close(self):
        pass


def reference_executor_command() -> list[str]:
    """Command line for the bundled host-language executor."""
    return [sys.executable, "-m", "mutexec.python_exec"]


class ExternalExecutor:
    """Bridges to a child-process executor over JSON lines."""

    def __init__(self, command: list[str] | str | None = None,
                 timeout: float = DEFAULT_TIMEOUT):
        if command is None:
            command = reference_executor_command()
        elif isinstance(command, str):
            command = shlex.split(command)
        self.command = command
        self.timeout = timeout
        self.proc: subprocess.Popen | None = None
        # bytes the child wrote past its last complete line; read from the
        # raw pipe, never through proc.stdout's own buffer
        self._pending = bytearray()

    def _ensure(self) -> subprocess.Popen:
        if self.proc is None or self.proc.poll() is not None:
            self._pending.clear()
            self.proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        return self.proc

    def _kill(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            for pipe in (self.proc.stdin, self.proc.stdout):
                try:
                    pipe.close()
                except OSError:  # a request left unflushed in a broken pipe
                    pass
            self.proc = None
        self._pending.clear()

    def _read_line(self, proc: subprocess.Popen) -> bytes | None:
        """The child's next line: None if it is not complete within the
        timeout, b"" if the child's output ends first."""
        pending = self._pending
        end = pending.find(b"\n")
        if end < 0:
            fd = proc.stdout.fileno()
            deadline = time.monotonic() + self.timeout
            with selectors.DefaultSelector() as sel:
                sel.register(fd, selectors.EVENT_READ)
                while end < 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not sel.select(remaining):
                        return None
                    chunk = os.read(fd, 1 << 16)
                    if not chunk:
                        return b""
                    start = len(pending)
                    pending += chunk
                    end = pending.find(b"\n", start)
        line = bytes(pending[:end + 1])
        del pending[:end + 1]
        return line

    def run(self, source: str, function_name: str, args: tuple | str,
            trace: bool = False) -> minipy.ExecResult:
        input_text = args if isinstance(args, str) else format_args(args)
        request = {
            "source": source,
            "function_name": function_name,
            "input": input_text,
            "trace": trace,
        }
        proc = self._ensure()
        try:
            proc.stdin.write((json.dumps(request) + "\n").encode())
            proc.stdin.flush()
        except (BrokenPipeError, OSError):
            self._kill()
            return minipy.ExecResult("error", error_kind="ExecutorCrashed")
        line = self._read_line(proc)
        if not line:
            self._kill()
            kind = "Timeout" if line is None else "ExecutorCrashed"
            return minipy.ExecResult("error", error_kind=kind)
        try:
            response = json.loads(line)
        except (ValueError, RecursionError):  # not JSON, not UTF-8, or nested too deeply
            response = None
        result = self._to_result(response) if isinstance(response, dict) else None
        if result is None:
            self._kill()
            return minipy.ExecResult("error", error_kind="BadResponse")
        return result

    @staticmethod
    def _to_result(response: dict) -> minipy.ExecResult | None:
        """The result a response object reports, or None if one of its
        fields has the wrong type."""
        covered = response.get("covered_lines") or []
        steps = response.get("steps") or 0
        if not isinstance(covered, list) or not all(type(n) is int for n in covered):
            return None
        if type(steps) is not int:
            return None
        if response.get("status") == "ok":
            output_repr = response.get("output_repr", "None")
            if not isinstance(output_repr, str):
                return None
            try:
                output = parse_literal(output_repr)
            except ValueError:
                return minipy.ExecResult(
                    "error", covered_lines=set(covered), steps=steps,
                    error_kind="UnrepresentableOutput",
                )
            result = minipy.ExecResult("ok", output, set(covered), steps)
            result.output_repr = output_repr  # exact child-side text
            return result
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
        if self.proc is not None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            self._kill()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
