import json
import os
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import pytest

from mutexec import datasets
from mutexec.executors import BuiltinExecutor
from mutexec.mutate import mutate_dataset
from mutexec.problems import pair_by_id

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def read_fixture(name: str) -> str:
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()


@pytest.fixture(scope="session")
def small_corpus():
    """A reduced sampled-program dataset for pipeline tests (fast)."""
    config = datasets.DslListConfig(seed=11, programs_per_combo=120, per_bin=2)
    return datasets.build_dsl_list(config)


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
