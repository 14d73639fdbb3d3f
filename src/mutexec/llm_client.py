"""Chat-completion client for OpenAI-compatible endpoints, plus mocks.

Three sampling profiles are shipped:

* ``traditional``: temperature 0.2, top_p 0.95, max_tokens 4096 (optional);
  paired with one-shot prompting.
* ``reasoning``: temperature 0.6, top_p 0.95, unbounded generation length;
  paired with zero-shot prompting.
* ``effort``: no temperature/top_p, ``reasoning_effort`` set to high;
  zero-shot prompting.

Every request and response (or transport failure) is appended to a JSONL
transcript so that runs are auditable and replayable through the scripted
mock.  The deterministic mocks understand the prediction and choice prompt
wire formats and answer from a ground-truth lookup, which makes full-pipeline
runs testable without a live endpoint.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field

from .problems import encode_json, end_on_line_boundary, iter_jsonl


class TransportError(Exception):
    pass


class _Refused(TransportError):
    """An HTTP 4xx other than 429: the request itself is at fault, so
    sending it again cannot succeed and it is not retried."""


PROFILES: dict[str, dict] = {
    "traditional": {"temperature": 0.2, "top_p": 0.95, "max_tokens": 4096,
                    "mode": "one_shot"},
    "reasoning": {"temperature": 0.6, "top_p": 0.95, "max_tokens": None,
                  "mode": "zero_shot"},
    "effort": {"reasoning_effort": "high", "mode": "zero_shot"},
}


@dataclass
class ModelConfig:
    endpoint: str = "https://api.openai.com/v1/chat/completions"
    model: str = "gpt-4o-mini"
    profile: str = "traditional"
    max_tokens: int | None = None  # None: the profile's cap; 0: no cap
    request_timeout: float = 180.0
    max_retries: int = 3
    parallelism: int = 4
    api_key_env: str = "OPENAI_API_KEY"

    def __post_init__(self):
        if self.profile not in PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")

    @property
    def default_mode(self) -> str:
        return PROFILES[self.profile]["mode"]

    def sampling_fields(self) -> dict:
        profile = PROFILES[self.profile]
        fields = {key: profile[key] for key in ("temperature", "top_p") if key in profile}
        max_tokens = profile.get("max_tokens") if self.max_tokens is None else self.max_tokens
        if max_tokens:
            fields["max_tokens"] = max_tokens
        if "reasoning_effort" in profile:
            fields["reasoning_effort"] = profile["reasoning_effort"]
        return fields

    def payload(self, prompt: str) -> dict:
        body = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
        }
        body.update(self.sampling_fields())
        return body


@dataclass
class ModelResponse:
    text: str
    finish_reason: str | None = None
    usage: dict = field(default_factory=dict)
    latency: float = 0.0


class Transcript:
    """Append-only JSONL log of every request/response/failure.

    A torn last line left by a killed run is cut when the transcript is
    opened again, so the next entry starts a line of its own.
    """

    def __init__(self, path: str | None):
        self.path = path
        self.lock = threading.Lock()
        self.entries = 0
        if path:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            if os.path.exists(path):
                end_on_line_boundary(path)

    def log(self, *entries: dict) -> None:
        """Append ``entries`` in order, in one write."""
        with self.lock:
            self.entries += len(entries)
            if self.path and entries:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write("".join(encode_json(entry) + "\n" for entry in entries))


class HttpModel:
    """Minimal chat-completion client on ``urllib.request``, with
    retry/backoff and logging.

    Transport failures, 429 and 5xx responses are retried with backoff; any
    other 4xx fails at once.
    """

    def __init__(self, config: ModelConfig, transcript: Transcript | None = None):
        self.config = config
        self.transcript = transcript or Transcript(None)
        self.headers = {"Content-Type": "application/json"}
        key = os.environ.get(config.api_key_env, "")
        if key:
            self.headers["Authorization"] = f"Bearer {key}"

    @property
    def default_mode(self) -> str:
        return self.config.default_mode

    @property
    def parallelism(self) -> int:
        return self.config.parallelism

    def _post(self, payload: dict) -> dict:
        """The JSON body of one POST; an HTTP error status raises."""
        # imported here: every CLI command imports this module, few post
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            self.config.endpoint, data=json.dumps(payload).encode("utf-8"),
            headers=self.headers, method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.config.request_timeout) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as exc:
            exc.close()
            if 400 <= exc.code < 500 and exc.code != 429:
                raise _Refused(f"HTTP {exc.code}") from None
            raise TransportError(f"HTTP {exc.code}") from None

    def _one_request(self, prompt: str) -> ModelResponse:
        payload = self.config.payload(prompt)
        last_error: Exception | None = None
        for attempt in range(self.config.max_retries + 1):
            start = time.monotonic()
            try:
                data = self._post(payload)
                latency = time.monotonic() - start
                choice = data["choices"][0]
                result = ModelResponse(
                    text=choice["message"]["content"] or "",
                    finish_reason=choice.get("finish_reason"),
                    usage=data.get("usage") or {},
                    latency=latency,
                )
                self.transcript.log({
                    "ts": time.time(), "model": self.config.model,
                    "prompt": prompt, "response": result.text,
                    "finish_reason": result.finish_reason,
                    "usage": result.usage, "latency": latency,
                })
                return result
            except Exception as exc:  # transport or schema failure
                last_error = exc
                self.transcript.log({
                    "ts": time.time(), "model": self.config.model,
                    "prompt": prompt, "error": str(exc), "attempt": attempt,
                })
                if isinstance(exc, _Refused):
                    break
                if attempt < self.config.max_retries:
                    time.sleep(min(30.0, 0.5 * 2**attempt))
        raise TransportError(str(last_error))

    def complete(self, prompt: str, n: int = 1) -> list[ModelResponse]:
        return [self._one_request(prompt) for _ in range(n)]

    def close(self):
        pass


# ---------------------------------------------------------------------------
# Mocks

# Wire-format markers of the two prompt families (see harness templates).
_PYTHON_BLOCK_RE = re.compile(
    r"\[PYTHON\]\n(.*?)\nassert (\w+)\((.*?)\) == \?\?\n\[/PYTHON\]", re.DOTALL
)
_PROGRAM_A_RE = re.compile(r"\[PROGRAM_A\]\n(.*?)\n\[/PROGRAM_A\]", re.DOTALL)
_PROGRAM_B_RE = re.compile(r"\[PROGRAM_B\]\n(.*?)\n\[/PROGRAM_B\]", re.DOTALL)
_ASSERTION_RE = re.compile(
    r"\[ASSERTION\]\nassert (\w+)\((.*?)\) == \?\?\n\[/ASSERTION\]", re.DOTALL
)


@dataclass
class _PairEntry:
    own_output: str
    original_output: str
    is_original: bool


class MockModel:
    """Deterministic stand-in models for desk-scale end-to-end runs.

    Behaviors: ``ground_truth_given`` answers with the true output of the
    program shown; ``ground_truth_original`` always answers with the paired
    original program's output (and, in choice prompts, picks the original);
    ``fixed`` returns a canned text; ``scripted`` replays a transcript.
    """

    def __init__(self, behavior: str, pairs=None, text: str = "",
                 script: dict[str, list[str]] | None = None,
                 transcript: Transcript | None = None):
        self.behavior = behavior
        self.text = text
        self.script = {k: list(v) for k, v in (script or {}).items()}
        self.lookup: dict[tuple[str, str], _PairEntry] = {}
        self.transcript = transcript or Transcript(None)
        self.parallelism = 1
        self.default_mode = "zero_shot"
        if pairs:
            for original, mutant in pairs:
                self.lookup[(original.source, original.input)] = _PairEntry(
                    original.output, original.output, True)
                self.lookup[(mutant.source, mutant.input)] = _PairEntry(
                    mutant.output, original.output, False)

    # -- prompt inversion

    def _entry(self, source: str, input_text: str) -> _PairEntry:
        try:
            return self.lookup[(source, input_text)]
        except KeyError:
            raise KeyError(f"mock has no ground truth for this prompt: {source!r}")

    def _answer_prediction(self, prompt: str) -> str:
        block = _PYTHON_BLOCK_RE.findall(prompt)[-1]
        source, fn, input_text = block
        entry = self._entry(source, input_text)
        output = (
            entry.original_output
            if self.behavior == "ground_truth_original"
            else entry.own_output
        )
        return f"[ANSWER]\nassert {fn}({input_text}) == {output}\n[/ANSWER]"

    def _answer_choice(self, prompt: str) -> str:
        a_source = _PROGRAM_A_RE.findall(prompt)[-1]
        b_source = _PROGRAM_B_RE.findall(prompt)[-1]
        fn, input_text = _ASSERTION_RE.findall(prompt)[-1]
        entry_a = self._entry(a_source, input_text)
        if self.behavior == "ground_truth_original":
            letter = "A" if entry_a.is_original else "B"
            output = entry_a.original_output
        else:  # ground_truth_given reasons about program A
            letter = "A"
            output = entry_a.own_output
        assertion = f"assert {fn}({input_text}) == {output}"
        return json.dumps({"chosen_program": letter, "assertion": assertion})

    def _respond(self, prompt: str) -> str:
        if self.behavior == "fixed":
            return self.text
        if self.behavior == "scripted":
            queue = self.script.get(prompt)
            if not queue:
                raise TransportError("scripted mock has no response for prompt")
            return queue.pop(0)
        if "[PROGRAM_A]" in prompt:
            return self._answer_choice(prompt)
        return self._answer_prediction(prompt)

    def complete(self, prompt: str, n: int = 1) -> list[ModelResponse]:
        """n answers, logged to the transcript in one append; the answers
        given before a scripted replay runs out are logged too."""
        out, entries = [], []
        try:
            for _ in range(n):
                text = self._respond(prompt)
                entries.append({"ts": time.time(), "model": f"mock:{self.behavior}",
                                "prompt": prompt, "response": text, "latency": 0.0})
                out.append(ModelResponse(text=text, finish_reason="stop"))
        finally:
            self.transcript.log(*entries)
        return out

    def close(self):
        pass


def mock_model(behavior: str, pairs=None, text: str = "",
               script: dict[str, list[str]] | None = None,
               transcript: Transcript | None = None) -> MockModel:
    if behavior not in ("ground_truth_given", "ground_truth_original",
                        "fixed", "scripted"):
        raise ValueError(f"unknown mock behavior {behavior!r}")
    return MockModel(behavior, pairs=pairs, text=text, script=script,
                     transcript=transcript)


ALWAYS_A_TEXT = json.dumps(
    {"chosen_program": "A", "assertion": "assert f(0) == 0"}
)


def scripted_from_transcript(path: str) -> dict[str, list[str]]:
    """Prompt -> ordered responses, reconstructed from a transcript file.
    The torn last line of a killed run is dropped (see ``iter_jsonl``); the
    entries are read one at a time, so only the script is held in memory."""
    script: dict[str, list[str]] = {}
    for entry in iter_jsonl(path, dict, torn_tail=True):
        if "response" in entry:
            script.setdefault(entry["prompt"], []).append(entry["response"])
    return script


def parse_model_spec(spec: str, pairs=None, transcript: Transcript | None = None,
                     config: ModelConfig | None = None):
    """Build a model from a CLI spec string.

    ``mock:ground-truth-given``, ``mock:ground-truth-original``,
    ``mock:always-a``, ``mock:fixed:<text>``, ``mock:scripted:<transcript>``,
    or ``http:<model-id>`` (using ``config`` for endpoint/profile details).
    """
    if spec.startswith("mock:"):
        rest = spec[len("mock:"):]
        if rest in ("ground-truth-given", "ground-truth-original"):
            return mock_model(rest.replace("-", "_"), pairs=pairs, transcript=transcript)
        if rest == "always-a":
            return mock_model("fixed", text=ALWAYS_A_TEXT, transcript=transcript)
        if rest.startswith("fixed:"):
            return mock_model("fixed", text=rest[len("fixed:"):], transcript=transcript)
        if rest.startswith("scripted:"):
            script = scripted_from_transcript(rest[len("scripted:"):])
            return mock_model("scripted", script=script, transcript=transcript)
        raise ValueError(f"unknown mock spec {spec!r}")
    if spec.startswith("http:"):
        cfg = config or ModelConfig()
        cfg.model = spec[len("http:"):]
        return HttpModel(cfg, transcript)
    raise ValueError(f"unknown model spec {spec!r}")
