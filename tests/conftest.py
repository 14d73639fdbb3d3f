import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import pytest

from mutexec.executors import BuiltinExecutor
from mutexec.mutate import enumerate_source_mutants, mutate_dataset
from mutexec.problems import load_jsonl, pair_by_id

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.fixture
def forks(monkeypatch):
    """Pids of the children forked from this process: sampling lanes and
    bundled executor children."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def read_fixture(name: str) -> str:
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()


# Texts the lexer must read as tokenize does, or as CPython's tokenizer does
# where that raises a TabError, each with the line of the ParseError it
# raises (None: it parses).
EDGE_CASES = [
    # comments, blank and whitespace-only lines
    ("def f(a1):\n    # note\n\n    v1 = a1  # trailing\n   \n    return v1\n", None),
    ("# header\n\ndef f(a1):\n    return a1\n# end", None),
    ("def f(a1):\n    return a1\n    ", None),
    # implicit line joining inside brackets
    ("def f(a1):\n    v1 = [1,\n  2,\n\n        3]\n    return (v1 +\n a1)\n", None),
    ("def f(a1):\n    a1.append(len(\n# inside\n    a1))\n    return a1", None),
    # backslash continuation, CRLF, form feed
    ("def f(a1):\n    v1 = 1 + \\\n        2\n    return v1\n", None),
    ("def f(a1):\r\n    v1 = [1,\r\n 2]\r\n\r\n    return v1\r\n", None),
    ("\x0cdef f(a1):\n\x0c    return a1\n", None),
    # tab indentation: a tab runs to the next multiple of 8, and the lines
    # must order the same with a tab as one column (else CPython's TabError)
    ("def f(a1):\n\tif a1:\n\t\treturn 1\n\treturn 2\n", None),
    ("def f(a1):\n    if a1:\n\treturn 1\n    return 2\n", 3),
    ("def f(a1):\n  \tif a1:\n\t    return 1\n\treturn 2\n", 4),
    # missing final newline, Unicode identifiers
    ("def f(a1):\n    return a1", None),
    ("def f(a1):\n    é = a1\n    return é", None),
    # number-like spans cut as tokenize cuts them
    ("def f(a1):\n    return 1_000\n", None),
    ("def f(a1):\n    return 00 + -0_0\n", None),
    ("def f(a1):\n    v1 = 1\n    return 1.5\n", 3),
    ("def f(a1):\n    return 0x10\n", 2),
    ("def f(a1):\n    return 1e3\n", 2),
    ("def f(a1):\n    return .5\n", 2),
    ("def f(a1):\n    return 1j\n", 2),
    ("def f(a1):\n    return 01\n", 2),
    ("def f(a1):\n    return 1if\n", 2),
    # string literals, one-line and multi-line
    ("def f(a1):\n    return 'x'\n", 2),
    ("def f(a1):\n    v1 = 1\n    v2 = rb\"x\"\n    return v1\n", 3),
    ("def f(a1):\n    v1 = '''a\nb'''\n    return v1\n", 2),
    ("def f(a1):\n    v1 = 'a\\\nb'\n    return v1\n", 2),
    # inconsistent dedent
    ("def f(a1):\n        v1 = 1\n    return v1\n", 3),
    ("def f(a1):\n    if a1:\n        v1 = 1\n      return v1\n", 4),
    # unexpected characters and unterminated quotes
    ("def f(a1):\n    x = $\n    return x\n", 2),
    ("def f(a1):\n    x = 'abc\n    return x\n", 2),
    ("def f(a1):\n    x = a1 ? 1\n", 2),
    # unclosed and stray brackets; a backslash or a string open at the end
    ("def f(a1):\n    x = [1,\n    return x\n", 2),
    ("def f(a1):\n    x = (1,\n [2,\n    return x", 3),
    ("def f(a1):\n    x = 1)\n    return x\n", 2),
    ("def f(a1):\n    x = 1 + \\\n", 2),
    ("def f(a1):\n    x = \"\"\"abc\n    return x\n", 2),
]

# From Python 3.12 on, tokenize is the C tokenizer: it raises at the first
# bad character instead of yielding an ERRORTOKEN.
needs_python_tokenize = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="compares with the pure-Python tokenize"
)


@pytest.fixture(scope="session")
def small_corpus():
    """A reduced sampled-program dataset for pipeline tests: 20 programs x 3
    inputs, as ``DslListConfig(seed=11, programs_per_combo=120, per_bin=2)``
    built it in version 0.1.0.  It is read from a file, so the pins of the
    layers after sampling do not move when the sampler's draws do."""
    return load_jsonl(fixture_path("small_corpus.jsonl"))


@pytest.fixture(scope="session")
def lexer_corpus(small_corpus):
    """Sampled programs, all their mutants, the fixture programs and the
    edge cases."""
    programs = list(dict.fromkeys(p.source for p in small_corpus))
    mutants = [m for source in programs for m, _ in enumerate_source_mutants(source)]
    with open(fixture_path("differential.jsonl"), encoding="utf-8") as fh:
        differential = [json.loads(line)["source"] for line in fh if line.strip()]
    edge = [source for source, _ in EDGE_CASES]
    return programs + mutants + differential + [read_fixture("golden_depth5.py")] + edge


@pytest.fixture(scope="session")
def small_pairs(small_corpus):
    kept, mutants = mutate_dataset(small_corpus, BuiltinExecutor(), seed=5)
    return kept, mutants, pair_by_id(kept, mutants)


def completion(text="answer"):
    """A chat-completion response body whose one choice says ``text``."""
    return {
        "choices": [{"message": {"content": text}, "finish_reason": "stop"}],
        "usage": {"total_tokens": 7},
    }


class StubEndpoint:
    """A chat-completion endpoint on 127.0.0.1 serving scripted replies.

    ``script(*replies)`` queues ``(status, body, delay)`` triples, answered
    in arrival order; the last one is repeated once the rest are used.  A
    dict body is sent as JSON, a str body as it is.  Every request's headers
    and JSON payload are kept in ``requests``.
    """

    def __init__(self):
        self.replies = [(200, completion(), 0.0)]
        self.requests: list[tuple[dict, dict]] = []
        self.lock = threading.Lock()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                with stub.lock:
                    stub.requests.append((dict(self.headers), json.loads(body)))
                    reply = stub.replies.pop(0) if len(stub.replies) > 1 else stub.replies[0]
                status, payload, delay = reply
                threading.Event().wait(delay)  # time.sleep may be patched
                data = payload if isinstance(payload, str) else json.dumps(payload)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.end_headers()
                self.wfile.write(data.encode("utf-8"))

            def log_message(self, *args):
                pass

        # handler threads are daemons (the class default) and their errors
        # are dropped: a slow reply the client gave up on fails no test and
        # does not hold up teardown
        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.server.handle_error = lambda request, address: None
        self.url = f"http://127.0.0.1:{self.server.server_port}/v1/chat/completions"

    def script(self, *replies) -> None:
        with self.lock:
            self.replies = list(replies)


@pytest.fixture
def stub(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    endpoint = StubEndpoint()
    thread = threading.Thread(
        target=endpoint.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield endpoint
    endpoint.server.shutdown()
    endpoint.server.server_close()
