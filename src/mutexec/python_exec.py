"""Reference host-language executor speaking the JSON-lines protocol.

Run as ``python -m mutexec.python_exec``.  Each stdin line is a request
{"source", "function_name", "input", "trace"}; each stdout line is a
response with the executed function's repr'd return value, the covered
1-based source lines (when tracing), and a line-event count.

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


def _execute(request: dict) -> dict:
    source = request["source"]
    function_name = request["function_name"]
    input_text = request.get("input", "")
    trace = bool(request.get("trace"))

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
        code = compile(source, FILENAME, "exec")
        exec(code, namespace)
        fn = namespace[function_name]
    except Exception as exc:
        return {"status": "error",
                "error": {"kind": type(exc).__name__, "line": _err_line(exc),
                          "message": str(exc)}}

    if trace:
        sys.settrace(tracer)
    try:
        result = fn(*args)
    except Exception as exc:
        return {"status": "error",
                "covered_lines": sorted(covered) if trace else None,
                "steps": steps if trace else None,
                "error": {"kind": type(exc).__name__, "line": _err_line(exc),
                          "message": str(exc)}}
    finally:
        if trace:
            sys.settrace(None)

    try:
        output_repr = repr(result)
    except Exception:
        return {"status": "error",
                "error": {"kind": "UnrepresentableOutput", "line": 0}}
    return {
        "status": "ok",
        "output_repr": output_repr,
        "covered_lines": sorted(covered) if trace else None,
        "steps": steps if trace else None,
    }


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
    for raw in requests:
        if not raw.strip():
            continue
        try:
            request = json.loads(raw)
            response = _execute(request)
        except Exception as exc:  # never die mid-protocol
            response = {"status": "error",
                        "error": {"kind": "ExecutorInternal", "line": 0,
                                  "message": str(exc)}}
        responses.write(json.dumps(response) + "\n")
        responses.flush()


if __name__ == "__main__":
    main()
