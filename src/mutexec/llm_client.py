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
from .problems import encode_json, end_on_line_boundary, iter_jsonl, repeat_decoder, split_json


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


DEFAULT_ENDPOINT = "https://api.openai.com/v1/chat/completions"


class ModelConfig:
    __slots__ = ("endpoint", "model", "profile", "max_tokens", "request_timeout",
                 "max_retries", "parallelism", "api_key_env")

    def __init__(self, endpoint: str = DEFAULT_ENDPOINT, model: str = "gpt-4o-mini",
                 profile: str = "traditional", max_tokens: int | None = None,
                 request_timeout: float = 180.0, max_retries: int = 3,
                 parallelism: int = 4, api_key_env: str = "OPENAI_API_KEY"):
        if profile not in PROFILES:
            raise ValueError(f"unknown profile {profile!r}")
        self.endpoint = endpoint
        self.model = model
        self.profile = profile
        self.max_tokens = max_tokens  # None: the profile's cap; 0: no cap
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.parallelism = parallelism
        self.api_key_env = api_key_env

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


class ModelResponse:
    __slots__ = ("text", "finish_reason", "usage", "latency")

    def __init__(self, text: str, finish_reason: str | None = None,
                 usage: dict | None = None, latency: float = 0.0):
        self.text = text
        self.finish_reason = finish_reason
        self.usage = {} if usage is None else usage
        self.latency = latency


class Transcript:
    """Append-only JSONL log: a model's requests, responses and failures,
    or the records of a run (``harness``), with no file when ``path`` is
    None.

    Writers hand it lines they have encoded themselves, so a writer of many
    similar entries can encode their shared part once: the entries of one
    mock call share one encoding of the model and prompt (``split_json``).
    The directory is made when the log is opened.  A torn last line left by
    a killed run is cut then, so the next entry starts a line of its own.
    """

    def __init__(self, path: str | None):
        self.path = path
        self.lock = threading.Lock()
        self.entries = 0
        if path:
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            if os.path.exists(path):
                end_on_line_boundary(path)

    def write(self, count: int, lines) -> None:
        """Log ``count`` entries: append ``lines``, their ``encode_json``
        texts each ending in a newline, in order, in one write.  ``lines`` is
        read only when the log has a file, so it may encode on demand."""
        with self.lock:
            self.entries += count
            if self.path and count:
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write("".join(lines))


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
                self.transcript.write(1, [encode_json({
                    "ts": time.time(), "model": self.config.model,
                    "prompt": prompt, "response": result.text,
                    "finish_reason": result.finish_reason,
                    "usage": result.usage, "latency": latency,
                }) + "\n"])
                return result
            except Exception as exc:  # transport or schema failure
                last_error = exc
                self.transcript.write(1, [encode_json({
                    "ts": time.time(), "model": self.config.model,
                    "prompt": prompt, "error": str(exc), "attempt": attempt,
                }) + "\n"])
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

# Wire-format markers of the two prompt families (see harness templates),
# matched with re.DOTALL; re compiles each on its first use, so a command
# that never asks a deterministic mock does not pay for them.
_PYTHON_BLOCK_RE = r"\[PYTHON\]\n(.*?)\nassert (\w+)\((.*?)\) == \?\?\n\[/PYTHON\]"
_PROGRAM_A_RE = r"\[PROGRAM_A\]\n(.*?)\n\[/PROGRAM_A\]"
_PROGRAM_B_RE = r"\[PROGRAM_B\]\n(.*?)\n\[/PROGRAM_B\]"
_ASSERTION_RE = r"\[ASSERTION\]\nassert (\w+)\((.*?)\) == \?\?\n\[/ASSERTION\]"


class _PairEntry:
    __slots__ = ("own_output", "original_output", "is_original")

    def __init__(self, own_output: str, original_output: str, is_original: bool):
        self.own_output = own_output
        self.original_output = original_output
        self.is_original = is_original


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

    @staticmethod
    def _last(pattern: str, prompt: str):
        """The last match of ``pattern`` in ``prompt``; a prompt without one
        is not one the mock can answer."""
        found = re.findall(pattern, prompt, re.DOTALL)
        if not found:
            raise KeyError(f"mock has no ground truth for this prompt: {prompt[:60]!r}")
        return found[-1]

    def _answer_prediction(self, prompt: str) -> str:
        source, fn, input_text = self._last(_PYTHON_BLOCK_RE, prompt)
        entry = self._entry(source, input_text)
        output = (
            entry.original_output
            if self.behavior == "ground_truth_original"
            else entry.own_output
        )
        return f"[ANSWER]\nassert {fn}({input_text}) == {output}\n[/ANSWER]"

    def _answer_choice(self, prompt: str) -> str:
        a_source = self._last(_PROGRAM_A_RE, prompt)
        self._last(_PROGRAM_B_RE, prompt)  # a choice prompt shows both programs
        fn, input_text = self._last(_ASSERTION_RE, prompt)
        entry_a = self._entry(a_source, input_text)
        if self.behavior == "ground_truth_original":
            letter = "A" if entry_a.is_original else "B"
            output = entry_a.original_output
        else:  # ground_truth_given reasons about program A
            letter = "A"
            output = entry_a.own_output
        assertion = f"assert {fn}({input_text}) == {output}"
        return json.dumps({"chosen_program": letter, "assertion": assertion})

    def _answer(self, prompt: str) -> str:
        if self.behavior == "fixed":
            return self.text
        if "[PROGRAM_A]" in prompt:
            return self._answer_choice(prompt)
        return self._answer_prediction(prompt)

    def complete(self, prompt: str, n: int = 1) -> list[ModelResponse]:
        """n answers, logged to the transcript in one append.  A deterministic
        mock answers the prompt once and gives that answer n times; a
        scripted replay gives the next n recorded responses, and the ones it
        gave before running out are logged before it raises."""
        if self.behavior == "scripted":
            queue = self.script.get(prompt, [])
            texts = queue[:n]
            del queue[:n]
        else:
            texts = [self._answer(prompt)] * n
        self.transcript.write(len(texts), self._lines(prompt, texts))
        if len(texts) < n:
            raise TransportError("scripted mock has no response for prompt")
        return [ModelResponse(text=text, finish_reason="stop") for text in texts]

    def _lines(self, prompt: str, texts: list[str]):
        """The transcript lines of the answers ``texts`` to ``prompt``: the
        model and prompt are encoded once, each distinct answer once, and
        only the time stamp per entry (a finite float, whose JSON text is its
        repr)."""
        stamp, middle, end = split_json(
            {"ts": 0.0, "model": f"mock:{self.behavior}", "prompt": prompt,
             "response": "", "latency": 0.0}, "ts", "response")
        rests: dict[str, str] = {}
        for text in texts:
            rest = rests.get(text)
            if rest is None:
                rest = rests[text] = middle + encode_json(text) + end + "\n"
            yield stamp + repr(time.time()) + rest

    def skip(self, prompt: str, count: int) -> None:
        """Pass over the next ``count`` recorded responses to ``prompt``.  A
        resumed run calls it for the samples it already holds, so that a
        replay answers each missing sample with that sample's own recorded
        response; a deterministic mock has nothing to pass over."""
        del self.script.get(prompt, [])[:count]

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
    entries are read one at a time, so only the script is held in memory.
    The n entries of one mock or replay call, which differ only in their
    ``ts``, are decoded once (``repeat_decoder``) and share one prompt and
    response string.
    """
    script: dict[str, list[str]] = {}
    for entry in iter_jsonl(path, None, torn_tail=True, decode=repeat_decoder("ts")):
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
