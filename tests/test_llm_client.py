import json

import pytest
from conftest import completion

from mutexec.llm_client import (
    ALWAYS_A_TEXT,
    HttpModel,
    MockModel,
    ModelConfig,
    Transcript,
    TransportError,
    mock_model,
    parse_model_spec,
    scripted_from_transcript,
)


class TestModelConfig:
    def test_traditional_profile_serialization(self):
        config = ModelConfig(profile="traditional", model="m")
        payload = config.payload("hi")
        assert payload["temperature"] == 0.2
        assert payload["top_p"] == 0.95
        assert payload["max_tokens"] == 4096
        assert payload["messages"] == [{"role": "user", "content": "hi"}]
        assert "reasoning_effort" not in payload

    def test_reasoning_profile_unbounded(self):
        payload = ModelConfig(profile="reasoning").payload("p")
        assert payload["temperature"] == 0.6
        assert payload["top_p"] == 0.95
        assert "max_tokens" not in payload

    def test_effort_profile_omits_sampling(self):
        payload = ModelConfig(profile="effort").payload("p")
        assert "temperature" not in payload
        assert "top_p" not in payload
        assert payload["reasoning_effort"] == "high"

    def test_zero_max_tokens_disables_cap(self):
        config = ModelConfig(profile="traditional", max_tokens=0)
        payload = config.payload("p")
        assert "max_tokens" not in payload

    def test_default_modes(self):
        assert ModelConfig(profile="traditional").default_mode == "one_shot"
        assert ModelConfig(profile="reasoning").default_mode == "zero_shot"
        assert ModelConfig(profile="effort").default_mode == "zero_shot"


def make_http_model(tmp_path, stub, max_retries=2, **config):
    transcript = Transcript(str(tmp_path / "transcript.jsonl"))
    model = HttpModel(ModelConfig(endpoint=stub.url, model="m",
                                  max_retries=max_retries, **config), transcript)
    return model, transcript


def read_transcript(transcript):
    with open(transcript.path) as fh:
        return [json.loads(line) for line in fh]


class TestHttpModel:
    def test_n_samples_and_logging(self, tmp_path, monkeypatch, stub):
        monkeypatch.setattr("time.sleep", lambda s: None)
        model, transcript = make_http_model(tmp_path, stub)
        responses = model.complete("prompt", 3)
        assert [r.text for r in responses] == ["answer"] * 3
        assert responses[0].usage == {"total_tokens": 7}
        assert transcript.entries == 3
        logged = read_transcript(transcript)
        assert all(entry["prompt"] == "prompt" for entry in logged)
        assert all("response" in entry for entry in logged)
        headers, payload = stub.requests[0]
        assert payload == model.config.payload("prompt")
        assert headers["Content-Type"] == "application/json"

    def test_retry_then_success(self, tmp_path, monkeypatch, stub):
        monkeypatch.setattr("time.sleep", lambda s: None)
        stub.script((500, "", 0), (503, "", 0), (200, completion(), 0))
        model, transcript = make_http_model(tmp_path, stub, max_retries=3)
        responses = model.complete("p", 1)
        assert responses[0].text == "answer"
        # two failures and one success all logged: nothing dropped silently
        assert transcript.entries == 3
        assert len(stub.requests) == 3
        assert [e.get("error") for e in read_transcript(transcript)] == [
            "HTTP 500", "HTTP 503", None]

    def test_transport_error_after_retries(self, tmp_path, monkeypatch, stub):
        monkeypatch.setattr("time.sleep", lambda s: None)
        stub.script((503, "", 0))
        model, transcript = make_http_model(tmp_path, stub, max_retries=2)
        with pytest.raises(TransportError, match="HTTP 503"):
            model.complete("p", 1)
        assert transcript.entries == 3  # every attempt logged
        assert len(stub.requests) == 3

    def test_rate_limit_retried(self, tmp_path, monkeypatch, stub):
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        stub.script((429, "", 0), (429, "", 0), (200, completion(), 0))
        model, _ = make_http_model(tmp_path, stub, max_retries=3)
        assert model.complete("p", 1)[0].text == "answer"
        assert len(stub.requests) == 3
        assert sleeps == [0.5, 1.0]  # backoff doubles

    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_client_error_fails_at_once(self, tmp_path, monkeypatch, stub, status):
        sleeps = []
        monkeypatch.setattr("time.sleep", sleeps.append)
        stub.script((status, "", 0))
        model, transcript = make_http_model(tmp_path, stub, max_retries=3)
        with pytest.raises(TransportError, match=f"HTTP {status}"):
            model.complete("p", 1)
        assert len(stub.requests) == 1
        assert transcript.entries == 1
        assert read_transcript(transcript)[0]["error"] == f"HTTP {status}"
        assert sleeps == []

    @pytest.mark.parametrize("body", ["not json", {"id": "x"}],
                             ids=["non_json", "no_choices"])
    def test_malformed_body_retried_then_fails(self, tmp_path, monkeypatch, stub, body):
        monkeypatch.setattr("time.sleep", lambda s: None)
        stub.script((200, body, 0))
        model, transcript = make_http_model(tmp_path, stub, max_retries=2)
        with pytest.raises(TransportError):
            model.complete("p", 1)
        assert len(stub.requests) == 3
        logged = read_transcript(transcript)
        assert [e["attempt"] for e in logged] == [0, 1, 2]
        assert all("response" not in e for e in logged)

    def test_null_content_is_empty_text(self, tmp_path, stub):
        stub.script((200, completion(None), 0))
        model, transcript = make_http_model(tmp_path, stub)
        assert model.complete("p", 1)[0].text == ""
        assert read_transcript(transcript)[0]["response"] == ""

    def test_slow_reply_times_out(self, tmp_path, stub):
        stub.script((200, completion(), 1.0))
        model, transcript = make_http_model(tmp_path, stub, max_retries=0,
                                            request_timeout=0.1)
        with pytest.raises(TransportError):
            model.complete("p", 1)
        assert transcript.entries == 1
        assert "error" in read_transcript(transcript)[0]

    def test_bearer_key_sent(self, tmp_path, monkeypatch, stub):
        monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
        model, _ = make_http_model(tmp_path, stub)
        model.complete("p", 1)
        assert stub.requests[0][0]["Authorization"] == "Bearer sk-test"

    def test_no_key_no_authorization(self, tmp_path, monkeypatch, stub):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        model, _ = make_http_model(tmp_path, stub)
        model.complete("p", 1)
        assert "Authorization" not in stub.requests[0][0]


def make_pairs():
    from mutexec.problems import Problem

    def problem(pid, source, output):
        return Problem(id=pid, dataset="dsl-list", source=source,
                       function_name="f", input="[1, 2]", output=output,
                       loc=3, executor="builtin")

    original = problem("p1", "def f(a1):\n    a1.pop(0)\n    return a1", "[2]")
    mutant = problem("p1", "def f(a1):\n    a1.pop(-1)\n    return a1", "[1]")
    return [(original, mutant)]


class TestMocks:
    def test_ground_truth_given_prediction(self):
        pairs = make_pairs()
        model = mock_model("ground_truth_given", pairs=pairs)
        from mutexec.harness import build_prediction_prompt

        prompt = build_prediction_prompt(pairs[0][0], "zero_shot")
        responses = model.complete(prompt, 5)
        assert len(responses) == 5
        assert all(r.text == responses[0].text for r in responses)
        assert "assert f([1, 2]) == [2]" in responses[0].text

    def test_ground_truth_original_on_mutant(self):
        pairs = make_pairs()
        model = mock_model("ground_truth_original", pairs=pairs)
        from mutexec.harness import build_prediction_prompt

        prompt = build_prediction_prompt(pairs[0][1], "one_shot")
        assert "assert f([1, 2]) == [2]" in model.complete(prompt, 1)[0].text

    def test_choice_answers(self):
        pairs = make_pairs()
        from mutexec.harness import build_choice_prompt

        given = mock_model("ground_truth_given", pairs=pairs)
        prompt = build_choice_prompt(pairs[0][0], pairs[0][1], "mutated_first")
        data = json.loads(given.complete(prompt, 1)[0].text)
        assert data["chosen_program"] == "A"  # reasons about whatever is first
        assert data["assertion"].endswith("== [1]")  # mutant's truth

        orig = mock_model("ground_truth_original", pairs=pairs)
        data = json.loads(orig.complete(prompt, 1)[0].text)
        assert data["chosen_program"] == "B"  # original sits second here
        assert data["assertion"].endswith("== [2]")

    def test_fixed_and_always_a(self):
        model = mock_model("fixed", text=ALWAYS_A_TEXT)
        assert json.loads(model.complete("anything", 1)[0].text)["chosen_program"] == "A"

    @pytest.mark.parametrize("behavior, kind", [
        ("ground_truth_given", "prediction"), ("ground_truth_given", "choice"),
        ("ground_truth_original", "prediction"), ("ground_truth_original", "choice"),
        ("fixed", "prediction"),
    ])
    def test_deterministic_mock_answers_a_prompt_once(self, tmp_path, monkeypatch,
                                                      behavior, kind):
        from mutexec.harness import build_choice_prompt, build_prediction_prompt

        pairs = make_pairs()
        original, mutant = pairs[0]
        prompt = (build_prediction_prompt(mutant) if kind == "prediction"
                  else build_choice_prompt(original, mutant, "mutated_first"))
        parsed = []
        answer = MockModel._answer

        def counting_answer(self, text):
            parsed.append(text)
            return answer(self, text)

        monkeypatch.setattr(MockModel, "_answer", counting_answer)
        transcript = Transcript(str(tmp_path / "t.jsonl"))
        model = mock_model(behavior, pairs=pairs, text="canned", transcript=transcript)
        texts = [r.text for r in model.complete(prompt, 50)]
        assert parsed == [prompt]
        assert texts == [answer(model, prompt)] * 50
        logged = read_transcript(transcript)
        assert transcript.entries == 50
        assert [(e["prompt"], e["response"]) for e in logged] == [(prompt, texts[0])] * 50
        assert all(isinstance(e["ts"], float) for e in logged)

    # texts whose JSON text has escapes, a raw line separator or non-ASCII
    TRICKY = ['say "hi"', "back\\slash", "two\nlines\r\n", "\u2028", "é 中", ""]

    @pytest.mark.parametrize("case", ["deterministic", "fixed", "distinct", "runs_out"])
    def test_transcript_lines_are_encode_json_of_each_entry(self, tmp_path, case):
        """Every line is ``encode_json`` of the entry, byte for byte, whatever
        the mock encodes once per call."""
        from mutexec.harness import build_prediction_prompt
        from mutexec.problems import encode_json

        path = tmp_path / "t.jsonl"
        transcript = Transcript(str(path))
        if case == "deterministic":
            pairs = make_pairs()
            prompt = build_prediction_prompt(pairs[0][1])
            model = mock_model("ground_truth_given", pairs=pairs, transcript=transcript)
            n = 50
        elif case == "fixed":
            prompt = "".join(self.TRICKY)
            model = mock_model("fixed", text=self.TRICKY[0], transcript=transcript)
            n = 3
        else:
            prompt = "q\n" + self.TRICKY[3]
            script = {prompt: [t + str(k) for k in range(4) for t in self.TRICKY]}
            model = mock_model("scripted", script=script, transcript=transcript)
            n = len(script[prompt]) + (2 if case == "runs_out" else 0)
        if case == "runs_out":  # the answers given before running out are logged
            with pytest.raises(TransportError):
                model.complete(prompt, n)
            texts = script[prompt]
        else:
            texts = [r.text for r in model.complete(prompt, n)]
        model.complete(prompt, 0)  # a call for no answer writes nothing
        lines = path.read_bytes().decode("utf-8").split("\n")
        assert lines.pop() == "" and len(lines) == len(texts) == transcript.entries
        for line, text in zip(lines, texts):
            ts = json.loads(line)["ts"]
            assert isinstance(ts, float)
            assert line == encode_json({"ts": ts, "model": f"mock:{model.behavior}",
                                        "prompt": prompt, "response": text, "latency": 0.0})

    def test_unanswerable_prompt_raises_before_logging(self, tmp_path):
        from mutexec.harness import build_prediction_prompt
        from mutexec.problems import Problem

        stranger = Problem(id="p9", dataset="dsl-list", source="def f(a1):\n    return a1",
                           function_name="f", input="[1, 2]", output="[1, 2]", loc=2,
                           executor="builtin")
        transcript = Transcript(str(tmp_path / "t.jsonl"))
        model = mock_model("ground_truth_given", pairs=make_pairs(), transcript=transcript)
        with pytest.raises(KeyError, match="mock has no ground truth"):
            model.complete(build_prediction_prompt(stranger), 3)
        assert transcript.entries == 0 and not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("drop", [None, "PROGRAM_A", "PROGRAM_B", "ASSERTION"])
    def test_unreadable_prompt_raises_before_logging(self, tmp_path, drop):
        # a prompt that is no prediction prompt, or a choice prompt without
        # one of its parts, is one the mock cannot answer
        import re

        from mutexec.harness import build_choice_prompt

        pairs = make_pairs()
        if drop is None:
            prompt = "Your task is to brainstorm a list of functions."
        else:
            prompt = build_choice_prompt(*pairs[0], "original_first")
            prompt, count = re.subn(rf"\[{drop}\].*?\[/{drop}\]\n", "", prompt,
                                    flags=re.DOTALL)
            assert count == 1
        transcript = Transcript(str(tmp_path / "t.jsonl"))
        model = mock_model("ground_truth_given", pairs=pairs, transcript=transcript)
        with pytest.raises(KeyError, match="mock has no ground truth for this prompt"):
            model.complete(prompt, 2)
        assert transcript.entries == 0 and not (tmp_path / "t.jsonl").exists()

    def test_scripted_returns_recorded_responses_in_order(self):
        model = mock_model("scripted", script={"q": ["a", "b", "c", "d"], "r": ["e"]})
        assert [r.text for r in model.complete("q", 3)] == ["a", "b", "c"]
        assert [r.text for r in model.complete("r", 1)] == ["e"]
        assert [r.text for r in model.complete("q", 1)] == ["d"]

    def test_scripted_replay(self, tmp_path):
        transcript_path = tmp_path / "t.jsonl"
        transcript = Transcript(str(transcript_path))
        source = mock_model("fixed", text="canned", transcript=transcript)
        source.complete("q1", 2)
        script = scripted_from_transcript(str(transcript_path))
        replay = mock_model("scripted", script=script)
        assert replay.complete("q1", 2)[1].text == "canned"
        with pytest.raises(TransportError):
            replay.complete("q1", 1)  # script exhausted

    def test_one_transcript_append_per_call(self, tmp_path, monkeypatch):
        from mutexec import llm_client

        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(llm_client, "open", counting_open, raising=False)
        transcript = Transcript(str(tmp_path / "t.jsonl"))
        model = mock_model("scripted", script={"q": ["a", "b", "c"]},
                           transcript=transcript)
        assert [r.text for r in model.complete("q", 2)] == ["a", "b"]
        assert len(opened) == 1 and transcript.entries == 2
        # answers given before the script runs out are still logged, in order
        with pytest.raises(TransportError):
            model.complete("q", 2)
        assert len(opened) == 2 and transcript.entries == 3
        assert [e["response"] for e in read_transcript(transcript)] == ["a", "b", "c"]
        with pytest.raises(TransportError):
            model.complete("q", 1)  # nothing answered, nothing written
        assert len(opened) == 2 and transcript.entries == 3

    # the long answer spans several of the 64 KiB steps that find the last line
    @pytest.mark.parametrize("canned", ["canned", "é" * 100_000], ids=["short", "long"])
    def test_torn_transcript_replays_and_appends_on_a_new_line(self, tmp_path, canned):
        path = tmp_path / "t.jsonl"
        mock_model("fixed", text=canned, transcript=Transcript(str(path))).complete("q", 3)
        whole = path.read_bytes()
        path.write_bytes(whole[:-10])  # a kill during the third entry
        assert scripted_from_transcript(str(path)) == {"q": [canned] * 2}
        # reopening cuts the torn entry, so the next one starts its own line
        transcript = Transcript(str(path))
        mock_model("fixed", text="again", transcript=transcript).complete("q", 1)
        assert scripted_from_transcript(str(path)) == {"q": [canned] * 2 + ["again"]}
        # a whole last entry that lost only its newline is kept
        path.write_bytes(whole[:-1])
        assert scripted_from_transcript(str(path)) == {"q": [canned] * 3}
        Transcript(str(path))
        assert path.read_bytes() == whole
        # a torn first and only line is cut to an empty file
        path.write_bytes(whole[:whole.index(b"\n") - 10])
        assert scripted_from_transcript(str(path)) == {}
        Transcript(str(path))
        assert path.read_bytes() == b""

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError):
            mock_model("telepathic")


def plain_script(path: str) -> dict[str, list[str]]:
    """The replay's script read by decoding every line, as it was read before
    repeated lines were skipped."""
    from mutexec.problems import iter_jsonl

    script: dict[str, list[str]] = {}
    for entry in iter_jsonl(path, dict, torn_tail=True):
        if "response" in entry:
            script.setdefault(entry["prompt"], []).append(entry["response"])
    return script


def outcome(read, path):
    try:
        return "ok", read(path)
    except Exception as exc:
        return "raised", type(exc), str(exc)


def transcript_lines(tmp_path) -> list[bytes]:
    """Mock entries of two prompts, with repeats, an HTTP error entry between
    two repeats, and a distinct answer."""
    from mutexec.problems import encode_json

    path = tmp_path / "source.jsonl"
    transcript = Transcript(str(path))
    mock_model("fixed", text='a "quoted", answer', transcript=transcript).complete("q", 3)
    error = {"ts": 1.5, "model": "m", "prompt": "q", "error": "HTTP 500", "attempt": 0}
    transcript.write(1, [encode_json(error) + "\n"])
    mock_model("fixed", text='a "quoted", answer', transcript=transcript).complete("q", 2)
    mock_model("scripted", script={"r": ["x", "x", "y"]}, transcript=transcript).complete("r", 3)
    return path.read_bytes().splitlines(keepends=True)


def with_stamp(line: bytes, stamp: bytes) -> bytes:
    return b'{"ts": ' + stamp + line[line.index(b","):]


class TestScriptedFromTranscript:
    """The replay reads every transcript as decoding each line would."""

    @pytest.mark.parametrize("edit", [
        "as_written", "crlf", "lost_newline", "torn_in_stamp", "torn_after_comma",
        "torn_in_text", "blank_lines", "first_comma_in_a_string", "duplicate_stamp",
    ])
    def test_same_script_or_error_as_decoding_every_line(self, tmp_path, edit):
        lines = transcript_lines(tmp_path)
        if edit == "crlf":
            lines = [line[:-1] + b"\r\n" for line in lines]
        elif edit == "lost_newline":  # a whole last line that repeats the one before
            lines[-1] = lines[-2][:-1]
        elif edit == "torn_in_stamp":
            lines[-1] = lines[-2][:9]
        elif edit == "torn_after_comma":
            lines[-1] = lines[-2][:lines[-2].index(b",") + 1]
        elif edit == "torn_in_text":
            lines[-1] = lines[-2][:-3]
        elif edit == "blank_lines":
            lines[2:2] = [b"\n", b" \t\r\n"]
        elif edit == "first_comma_in_a_string":
            # the first line's stamp is a string holding a comma; a line that
            # repeats its text after that comma is no JSON
            lines[0] = b'{"ts": "1,5' + lines[0][lines[0].index(b","):]
            lines[0] = lines[0].replace(b', "model"', b'", "model"', 1)
            lines[1] = b'{"ts": 2' + lines[0][lines[0].index(b","):]
        elif edit == "duplicate_stamp":
            lines[0] = b'{"ts": [1,2], "ts": 3' + lines[0][lines[0].index(b","):]
            lines[1] = b'{"ts": 7' + lines[0][lines[0].index(b","):]
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"".join(lines))
        expected = outcome(plain_script, str(path))
        assert outcome(scripted_from_transcript, str(path)) == expected
        if edit == "as_written":
            assert expected[1] == {"q": ['a "quoted", answer'] * 5, "r": ["x", "x", "y"]}

    @pytest.mark.parametrize("stamp", [
        b"0", b"-0", b"12", b"1760918400.123456", b"1e5", b"1E-5", b"-12.5e+3",
        b"1e", b"01", b"1.", b"-", b"+1", b".5", b"1e+",
        "1\u0661".encode("utf-8"), "1.\u0661".encode("utf-8"),  # a non-ASCII digit
        b"NaN", b"-Infinity", b"true", b'"1"', b" 1", b"1 ",
    ])
    @pytest.mark.parametrize("where", [1, 2, 4, 6])
    def test_every_stamp_read_as_decoding_would(self, tmp_path, stamp, where):
        """A stamp that is no JSON number raises where decoding raises, and
        one that is any other JSON value is read as decoding reads it."""
        lines = transcript_lines(tmp_path)
        lines[where] = with_stamp(lines[where], stamp)
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"".join(lines))
        expected = outcome(plain_script, str(path))
        assert outcome(scripted_from_transcript, str(path)) == expected
        if stamp == b"1e":  # a repeat whose stamp is malformed still raises
            assert expected[:2] == ("raised", json.JSONDecodeError)

    def test_repeats_share_one_response_string(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_bytes(b"".join(transcript_lines(tmp_path)))
        script = scripted_from_transcript(str(path))
        assert script == plain_script(str(path))
        # the HTTP error entry ends the first run of repeats
        first, second = script["q"][:3], script["q"][3:]
        assert len({id(text) for text in first}) == len({id(text) for text in second}) == 1
        assert script["r"][0] is script["r"][1]


class TestParseModelSpec:
    def test_mock_specs(self):
        assert isinstance(parse_model_spec("mock:always-a"), MockModel)
        assert parse_model_spec("mock:fixed:hello").complete("x", 1)[0].text == "hello"
        with pytest.raises(ValueError):
            parse_model_spec("mock:unknown")
        with pytest.raises(ValueError):
            parse_model_spec("carrier-pigeon:grey")
