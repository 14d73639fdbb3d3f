"""Reference host-language executor speaking the JSON-lines protocol.

Run as ``python -m mutexec.python_exec``.  Each stdin line is a request
{"id", "source", "function_name", "input"}; each stdout line is a response
with the request's ``id`` (when it has one), the executed function's repr'd
return value, and, from the line tracer that every call runs under, the
covered 1-based source lines and the count of line events (``steps``).
Requests are answered in order, each as soon as it is read, so the parent
may write ahead of the answers.

Each distinct source is compiled once (up to 4,096 kept) and its code runs
into a fresh namespace per request, so no state carries from one request to
the next.  A source that does not compile is compiled, and fails, again on
each request.

The protocol has fds 0 and 1 to itself: the programs run with stdin and
stdout on /dev/null, so what they print or read never touches it.  A source
that does not compile or raises while its module runs, and a function name
that names no function, fail before the call starts: no covered lines and 0
steps, as in minipy.  A return value whose ``repr`` fails (lists nested too
deeply) is kind "UnrepresentableOutput" with the call's covered lines and
steps and no line, as is one whose ``repr`` the parent cannot parse back.
On a program minipy accepts, every field of a response equals minipy's
result (README, "External executor protocol", lists the exceptions).

``ExternalExecutor`` with no command forks this child from a command that
has one thread instead of starting a second interpreter: a
``forking.Child`` whose program is ``serve_forked``.  The forked child
answers every request as a started one does, and shares the command's hash
secret, as a started child does when ``PYTHONHASHSEED`` is set.  A command
with more than one thread starts it as ``python -m mutexec.python_exec``,
as a custom ``--executor-cmd`` may.  Either way
``main`` sets the recursion limit so that ``HEADROOM`` nested calls fit
below it, so how deep a program may recurse does not depend on how the
child started or on how deep the command's stack was.

This process runs untrusted-ish code with no sandboxing; callers own the
timeout and process lifecycle.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import warnings

FILENAME = "<problem>"
CODE_CACHE_SIZE = 4096
# the nested calls left below ``main`` of a child started as ``python -m
# mutexec.python_exec`` at the default recursion limit; from 3.12 on, the
# limit counts Python frames only, so runpy's ``exec`` of the module costs none
HEADROOM = 994 if sys.version_info < (3, 12) else 995


def _execute(request: dict, codes: dict) -> dict:
    """The response to one request; ``codes`` maps source text to its
    compiled code."""
    source = request["source"]
    function_name = request["function_name"]
    input_text = request.get("input", "")

    try:
        args = ast.literal_eval("(" + input_text + ",)") if input_text.strip() else ()
    except Exception as exc:  # malformed argument literal
        return {"status": "error",
                "error": {"kind": "BadInput", "line": 0, "message": str(exc)}}

    namespace: dict = {}
    covered: set[int] = set()
    steps = 0

    def tracer(frame, event, arg):
        nonlocal steps
        if frame.f_code.co_filename == FILENAME:
            if event == "line":
                covered.add(frame.f_lineno)
                steps += 1
            return tracer
        return None

    try:
        code = codes.get(source)
        if code is None:
            code = compile(source, FILENAME, "exec")
            if len(codes) >= CODE_CACHE_SIZE:
                codes.clear()
            codes[source] = code
        exec(code, namespace)
    except Exception as exc:  # the call never starts, as in minipy
        return {"status": "error", "covered_lines": [], "steps": 0,
                "error": {"kind": type(exc).__name__, "line": _err_line(exc),
                          "message": str(exc)}}
    fn = namespace.get(function_name)
    if not callable(fn):  # minipy calls only functions
        return {"status": "error", "covered_lines": [], "steps": 0,
                "error": {"kind": "NameError", "line": 0,
                          "message": f"no function {function_name!r}"}}

    sys.settrace(tracer)
    try:
        result = fn(*args)
    except Exception as exc:
        return {"status": "error", "covered_lines": sorted(covered), "steps": steps,
                "error": {"kind": type(exc).__name__, "line": _err_line(exc),
                          "message": str(exc)}}
    finally:
        sys.settrace(None)

    try:
        output_repr = repr(result)
    except Exception:  # nested too deeply to write, say
        return {"status": "error", "covered_lines": sorted(covered), "steps": steps,
                "error": {"kind": "UnrepresentableOutput", "line": None}}
    return {"status": "ok", "output_repr": output_repr,
            "covered_lines": sorted(covered), "steps": steps}


def _err_line(exc: BaseException) -> int:
    tb = exc.__traceback__
    line = 0
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == FILENAME:
            line = tb.tb_lineno
        tb = tb.tb_next
    if line == 0 and isinstance(exc, SyntaxError) and exc.lineno:
        line = exc.lineno
    return line


def _headroom(depth: int = 0) -> int:
    """How many more nested calls fit below the caller's frame."""
    try:
        return _headroom(depth + 1)
    except RecursionError:
        return depth


def main() -> None:
    # the recursion limit is set so that this frame has HEADROOM calls left
    # below it, however deep the frames under it are
    sys.setrecursionlimit(sys.getrecursionlimit() + HEADROOM - _headroom())
    requests = os.fdopen(os.dup(0), "r")
    responses = os.fdopen(os.dup(1), "w")
    devnull = os.open(os.devnull, os.O_RDWR)
    os.dup2(devnull, 0)
    os.dup2(devnull, 1)
    os.close(devnull)
    # sys.stdin and sys.stdout still wrap fds 0 and 1, which are /dev/null now
    codes: dict = {}
    for raw in requests:
        if not raw.strip():
            continue
        request = None
        try:
            request = json.loads(raw)
            response = _execute(request, codes)
        except Exception as exc:  # never die mid-protocol
            response = {"status": "error",
                        "error": {"kind": "ExecutorInternal", "line": 0,
                                  "message": str(exc)}}
        if isinstance(request, dict) and "id" in request:
            response["id"] = request["id"]
        responses.write(json.dumps(response) + "\n")
        responses.flush()


def serve_forked() -> None:
    """Run ``main`` in a ``forking.Child`` of a command, made first what
    ``python -m mutexec.python_exec`` would start: ``sys.stdin``,
    ``sys.stdout`` and ``sys.stderr`` are new streams on fds 0 to 2; no
    trace or profile hook is set; the warning filters are a fresh
    interpreter's; ``sys.argv`` is this module's path and ``sys.path[0]``
    the working directory.  ``__main__`` stays the command's.  ``main``
    evens out the deeper stack."""
    # the command's streams stay referenced until ``main`` has put fd 1 on
    # /dev/null, so that no finalizer writes what is still in their buffers
    # to the response pipe
    command_streams = (sys.stdin, sys.stdout, sys.stderr,
                       sys.__stdin__, sys.__stdout__, sys.__stderr__)
    sys.stdin, sys.stdout, sys.stderr = (
        open(fd, mode, closefd=False, encoding=getattr(like, "encoding", None),
             errors=getattr(like, "errors", None))
        for fd, mode, like in zip((0, 1, 2), "rww", command_streams[3:]))
    sys.__stdin__, sys.__stdout__, sys.__stderr__ = sys.stdin, sys.stdout, sys.stderr
    sys.settrace(None)
    sys.setprofile(None)
    import threading  # the command has loaded it (forking.may_fork)

    threading.settrace(None)
    threading.setprofile(None)
    warnings.resetwarnings()  # then a release build's start-up filters
    for category in (ResourceWarning, ImportWarning, PendingDeprecationWarning,
                     DeprecationWarning):
        warnings.simplefilter("ignore", category)
    warnings.filterwarnings("default", category=DeprecationWarning, module="__main__")
    warnings._processoptions(
        [option for option in os.environ.get("PYTHONWARNINGS", "").split(",") if option])
    sys.argv = [__file__]
    if not (sys.version_info >= (3, 11) and os.environ.get("PYTHONSAFEPATH")):
        sys.path.insert(0, os.getcwd())  # as ``-m`` puts it first
    main()


if __name__ == "__main__":
    main()
