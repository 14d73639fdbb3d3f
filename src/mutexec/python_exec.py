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
stdout on /dev/null, so what they print or read never touches it.

This process runs untrusted-ish code with no sandboxing; callers own the
timeout and process lifecycle.
"""

from __future__ import annotations

import ast
import json
import os
import sys

FILENAME = "<problem>"
CODE_CACHE_SIZE = 4096


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
    except Exception as exc:
        return {"status": "error",
                "error": {"kind": type(exc).__name__, "line": _err_line(exc),
                          "message": str(exc)}}
    if function_name not in namespace:  # the call never starts, as in minipy
        return {"status": "error", "covered_lines": [], "steps": 0,
                "error": {"kind": "NameError", "line": 0,
                          "message": f"name {function_name!r} is not defined"}}
    fn = namespace[function_name]

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
    except Exception:
        return {"status": "error",
                "error": {"kind": "UnrepresentableOutput", "line": 0}}
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


def main() -> None:
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


if __name__ == "__main__":
    main()
