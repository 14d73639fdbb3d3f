import hashlib
import inspect
import json
import random
import re
import threading

import pytest
from conftest import read_fixture

from mutexec.harness import (
    ChoiceExtraction,
    ChoiceRecord,
    PredictionRecord,
    build_choice_prompt,
    build_prediction_prompt,
    extract_choice,
    extract_prediction,
    judge,
    load_choice_records,
    load_prediction_records,
    run_choice,
    run_prediction,
)
from mutexec.llm_client import (
    ALWAYS_A_TEXT,
    ModelResponse,
    Transcript,
    TransportError,
    mock_model,
    scripted_from_transcript,
)
from mutexec.problems import Problem, pair_by_id, save_jsonl


def make_pair():
    original = Problem(
        id="p1", dataset="dsl-list",
        source="def f(a1):\n    a1.pop(0)\n    return a1",
        function_name="f", input="[4, 1, 3]", output="[1, 3]",
        loc=3, executor="builtin",
    )
    mutant = Problem(
        id="p1", dataset="dsl-list",
        source="def f(a1):\n    a1.pop(-1)\n    return a1",
        function_name="f", input="[4, 1, 3]", output="[4, 1]",
        loc=3, executor="builtin",
    )
    return original, mutant


class TestPairById:
    @pytest.mark.parametrize("repeated", ["originals", "mutants"])
    def test_repeated_id_raises(self, repeated):
        # keeping the last of two mutants of one id would pair an original
        # with another program's mutant
        original, mutant = make_pair()
        originals, mutants = [original], [mutant]
        {"originals": originals, "mutants": mutants}[repeated].append(original)
        with pytest.raises(ValueError, match="problem id 'p1' appears more than once"):
            pair_by_id(originals, mutants)

    @pytest.mark.parametrize("extra, other", [("originals", "mutants"),
                                              ("mutants", "originals")])
    def test_unmatched_id_named_with_its_side(self, extra, other):
        original, mutant = make_pair()
        originals, mutants = [original], [mutant]
        # a second problem on one side only, under another id
        {"originals": originals, "mutants": mutants}[extra].append(
            Problem(**dict(original.to_json(), id="p2")))
        with pytest.raises(ValueError) as info:
            pair_by_id(originals, mutants)
        assert str(info.value) == (
            "datasets are not in one-to-one correspondence: problem id 'p2' is in "
            f"the {extra} but not in the {other}")


class TestPromptGoldens:
    def test_prediction_zero_shot(self):
        original, _ = make_pair()
        assert build_prediction_prompt(original, "zero_shot") == read_fixture(
            "golden_pred_zero_shot.txt"
        )

    def test_prediction_zero_shot_shape(self):
        original, _ = make_pair()
        prompt = build_prediction_prompt(original, "zero_shot")
        assert "[PYTHON]" in prompt and "[/PYTHON]" in prompt
        assert "assert f([4, 1, 3]) == ??" in prompt

    def test_prediction_one_shot_contains_worked_example(self):
        original, _ = make_pair()
        prompt = build_prediction_prompt(original, "one_shot")
        assert prompt == read_fixture("golden_pred_one_shot.txt")
        assert 'assert performOperation(s = "hi") == "bhihia"' in prompt

    def test_choice_goldens_both_orders(self):
        original, mutant = make_pair()
        assert build_choice_prompt(original, mutant, "original_first") == read_fixture(
            "golden_choice_zero_shot_original_first.txt"
        )
        assert build_choice_prompt(original, mutant, "mutated_first") == read_fixture(
            "golden_choice_zero_shot_mutated_first.txt"
        )

    def test_choice_one_shot_contains_capitalize_example(self):
        original, mutant = make_pair()
        prompt = build_choice_prompt(original, mutant, "original_first", "one_shot")
        assert prompt == read_fixture("golden_choice_one_shot_original_first.txt")
        assert '"chosen_program": "B"' in prompt
        assert "'Hello'" in prompt

    def test_order_places_programs(self):
        original, mutant = make_pair()
        prompt = build_choice_prompt(original, mutant, "mutated_first")
        a_part = prompt.split("[PROGRAM_A]\n")[1].split("\n[/PROGRAM_A]")[0]
        assert a_part == mutant.source


class TestTemplateDigests:
    def test_committed_templates_verify(self):
        from mutexec.harness import verify_templates

        assert verify_templates() == []

    def test_drift_detected(self, monkeypatch):
        from mutexec import harness as h

        monkeypatch.setattr(h, "PREDICTION_ZERO_SHOT", h.PREDICTION_ZERO_SHOT + "x")
        assert h.verify_templates() == ["PREDICTION_ZERO_SHOT"]


class TestExtractPrediction:
    def test_basic(self):
        extracted = extract_prediction("[ANSWER]assert f([1,2]) == [2, 1][/ANSWER]")
        assert extracted.value == [2, 1]
        assert extracted.text == "[2, 1]"

    def test_no_tags_unparsed(self):
        assert extract_prediction("the answer is [2, 1]") is None

    def test_last_span_wins(self):
        text = (
            "[ANSWER]assert f(1) == 1[/ANSWER] wait, reconsidering "
            "[ANSWER]assert f(1) == 2[/ANSWER]"
        )
        assert extract_prediction(text).value == 2

    def test_multiline_and_thought_noise(self):
        text = (
            "[THOUGHT]\nstep by step... tentative assert f([1]) == [9]\n[/THOUGHT]\n"
            "[ANSWER]\nassert f([1]) == [1, 7]\n[/ANSWER]\n"
        )
        assert extract_prediction(text).value == [1, 7]

    def test_non_literal_rhs_unparsed(self):
        for rhs in ("[1]+[2]", "f(2)", "len([1])", "x", "??", "1e999", "[-1e999]"):
            assert extract_prediction(f"[ANSWER]assert f(1) == {rhs}[/ANSWER]") is None

    def test_missing_assert_unparsed(self):
        assert extract_prediction("[ANSWER][2, 1][/ANSWER]") is None

    def test_strings_tuples_dicts_for_external(self):
        text = "[ANSWER]assert f('x') == ('a', {'k': None})[/ANSWER]"
        assert extract_prediction(text).value == ("a", {"k": None})


class TestExtractChoice:
    def test_basic(self):
        text = '{"chosen_program": "B", "assertion": "assert f([1]) == [1, 5]"}'
        extraction = extract_choice(text)
        assert extraction.letter == "B"
        assert extraction.literal.value == [1, 5]

    def test_last_json_wins(self):
        text = (
            'first guess {"chosen_program": "A", "assertion": "assert f(1) == 1"} '
            'final {"chosen_program": "B", "assertion": "assert f(1) == 2"}'
        )
        extraction = extract_choice(text)
        assert extraction.letter == "B"
        assert extraction.literal.value == 2

    def test_thought_prefix(self):
        text = (
            "Thinking about which one...\n{\n    \"chosen_program\": \"A\",\n"
            '    "assertion": "assert f([4, 1, 3]) == [1, 3]"\n}\n'
        )
        extraction = extract_choice(text)
        assert extraction.letter == "A" and extraction.literal.value == [1, 3]

    def test_unreadable_choice(self):
        assert extract_choice("I choose A. assert f(1) == 2").letter is None
        assert extract_choice('{"chosen_program": "C"}').letter is None

    @pytest.mark.parametrize("text", [
        '{"a": ' * 5000 + "1" + "}" * 5000,
        '{"chosen_program": "A", "assertion": ' + "[" * 100_000,
    ], ids=["5000-nested-objects", "100000-brackets"])
    def test_too_deeply_nested_json_is_unreadable(self, text):
        assert extract_choice(text) == ChoiceExtraction(None, None)

    def test_readable_choice_unreadable_literal(self):
        extraction = extract_choice('{"chosen_program": "A", "assertion": "nope"}')
        assert extraction.letter == "A"
        assert extraction.literal is None

    @pytest.mark.parametrize("first_slice", [1, 7, 256])
    def test_scan_of_slices_matches_scan_of_copies(self, monkeypatch, first_slice):
        """Decoding growing slices from each ``{`` finds what decoding a copy
        of each whole suffix found: on the golden choice prompts, alone and
        followed by an answer, and on seeded brace-heavy texts, with slices
        that start short enough to cut every kind of token."""
        from mutexec import harness

        monkeypatch.setattr(harness, "_FIRST_SLICE", first_slice)

        def candidates_of_copies(text):
            decoder = json.JSONDecoder()
            for start in range(len(text)):
                if text[start] != "{":
                    continue
                try:
                    obj, _ = decoder.raw_decode(text[start:])
                except json.JSONDecodeError:
                    continue
                if isinstance(obj, dict):
                    yield obj

        answer = '{"chosen_program": "A", "assertion": "assert f([4, 1, 3]) == [1, 3]"}'
        texts = []
        for name in ("golden_choice_one_shot_original_first.txt",
                     "golden_choice_zero_shot_original_first.txt",
                     "golden_choice_zero_shot_mutated_first.txt"):
            texts += [read_fixture(name), read_fixture(name) + answer]
        objects = [answer, '{"chosen_program": "B", "assertion": "assert f(1) == 2"}',
                   '{"x": {"y": [1, {"z": null}]}, "chosen_program": "b"}',
                   '{"chosen_program": "C"}', "{}"]
        scalars = ["-Infinity", "Infinity", "NaN", "true", "false", "null", "-12.5e-3",
                   "0", '"\\ud83d\\ude00"', '"\\u00e9\\n"', '"\\q"', '"a\x01b"',
                   '"' + "word " * 12 + '"', " " * 20]
        pieces = ["{", "}", "[", "]", '"', ":", ",", " ", "\n", "x", *objects, *scalars,
                  *(o[:cut] for o in objects for cut in (3, 17))]
        rng = random.Random(7)
        texts += ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 30)))
                  for _ in range(3000)]
        texts += ['{"k": %s}' % s for s in scalars]
        found = [(list(harness._json_candidates(t)), extract_choice(t)) for t in texts]
        monkeypatch.setattr(harness, "_json_candidates", candidates_of_copies)
        assert found == [(list(candidates_of_copies(t)), extract_choice(t)) for t in texts]
        assert sum(extraction.letter is not None for _, extraction in found) > 1000


    def test_scan_work_does_not_grow_with_offset(self, monkeypatch):
        """Each ``{`` of a long brace-heavy text hands the decoder one short
        slice, however far into the text it sits: a failed decode costs
        time linear in the length of the string the decoder was given."""
        from mutexec import harness

        decoded = []

        class CountingDecoder(json.JSONDecoder):
            def raw_decode(self, s, idx=0):
                decoded.append(len(s))
                return super().raw_decode(s, idx)

        monkeypatch.setattr(harness, "_DECODER", CountingDecoder())
        unit = '{"k": x} {x} { word\n{"a": 1} {"chosen_program": "A", "assertion": "3"}\n'
        text = unit * 500
        assert extract_choice(text).letter == "A"
        assert len(decoded) == text.count("{")
        assert max(decoded) == harness._FIRST_SLICE


class TestJudge:
    def test_exclusive_judgments(self):
        own, other = [1, 3], [4, 1]
        correct = extract_prediction("[ANSWER]assert f(0) == [1, 3][/ANSWER]")
        reverted = extract_prediction("[ANSWER]assert f(0) == [4, 1][/ANSWER]")
        neither = extract_prediction("[ANSWER]assert f(0) == [9][/ANSWER]")
        assert judge(correct, own, other) == "correct"
        assert judge(reverted, own, other) == "reverted"
        assert judge(neither, own, other) == "other"
        assert judge(None, own, other) == "unparsed"

    def test_strict_typing(self):
        extracted = extract_prediction("[ANSWER]assert f(0) == True[/ANSWER]")
        assert judge(extracted, 1, 0) == "other"  # True is not 1


def record_fields(record) -> list[str]:
    """The field names of a record's class, in order: its constructor's
    parameters, which for the slotted records are also their ``__slots__``."""
    names = list(inspect.signature(type(record)).parameters)
    slots = getattr(type(record), "__slots__", None)
    assert slots is None or list(slots) == names
    return names


RECORD_ARGS = {
    PredictionRecord: ("p", "original", 0, "r", "1", "correct", 3, False),
    ChoiceRecord: ("p", 1, "original_first", "r", "original", None, "unparsed", 3, True),
}


class TestRecordFields:
    @pytest.mark.parametrize("record", [
        make_pair()[0],
        Problem(id="p", dataset="d", source="s", function_name="f", input="1",
                output="2", loc=1, executor="builtin", program_id="q", dsl_text="t",
                depth=4, arity=1, mutation_info={"kind": "arithmetic", "line": 2}),
        PredictionRecord("p", "original", 0, "r", "1", "correct", 3, False),
        ChoiceRecord("p", 1, "original_first", "r", "original", None, "unparsed", 3,
                     True, "HTTP 500"),
    ], ids=["problem", "mutant", "prediction", "choice"])
    def test_to_json_keys_in_field_order(self, record):
        data = record.to_json()
        names = record_fields(record)
        assert list(data) == names
        assert data == {name: getattr(record, name) for name in names}
        if data.get("mutation_info") is not None:
            assert data["mutation_info"] is not record.mutation_info

    @pytest.mark.parametrize("cls", list(RECORD_ARGS), ids=lambda cls: cls.__name__)
    def test_records_are_slotted_values(self, cls):
        args = RECORD_ARGS[cls]
        record = cls(*args)
        assert not hasattr(record, "__dict__")
        assert record.error is None
        assert record == cls(*args) == cls(**dict(zip(record_fields(record), args)))
        assert record != cls(*args, error="HTTP 500")
        assert repr(record) == f"{cls.__name__}(" + ", ".join(
            f"{name}={getattr(record, name)!r}" for name in record_fields(record)) + ")"

    def test_records_of_two_classes_never_equal(self):
        prediction = PredictionRecord(*RECORD_ARGS[PredictionRecord])
        choice = ChoiceRecord(*RECORD_ARGS[ChoiceRecord])
        assert prediction != choice and choice != prediction
        assert prediction.__eq__(choice) is NotImplemented
        assert prediction != prediction._values()

    @pytest.mark.parametrize("cls", list(RECORD_ARGS), ids=lambda cls: cls.__name__)
    def test_missing_field_named(self, cls):
        data = cls(*RECORD_ARGS[cls]).to_json()
        del data["judgment"]
        with pytest.raises(TypeError, match="missing 1 required positional argument: "
                                            "'judgment'"):
            cls(**data)


class TestRuns:
    def test_prediction_counts_and_correctness(self, small_pairs):
        kept, mutants, pairs = small_pairs
        model = mock_model("ground_truth_given", pairs=pairs)
        records = run_prediction(kept, mutants, model, n=5)
        assert len(records) == len(kept) * 2 * 5
        assert all(r.judgment == "correct" for r in records)

    def test_ground_truth_original_reverts_on_mutants(self, small_pairs):
        kept, mutants, pairs = small_pairs
        model = mock_model("ground_truth_original", pairs=pairs)
        records = run_prediction(kept, mutants, model, n=5)
        for record in records:
            if record.variant == "original":
                assert record.judgment == "correct"
            else:
                assert record.judgment == "reverted"

    def test_persistence_and_resume(self, tmp_path, small_pairs):
        kept, mutants, pairs = small_pairs
        kept, mutants = kept[:6], mutants[:6]
        out = str(tmp_path / "records.jsonl")
        model = mock_model("ground_truth_given", pairs=pairs)
        full = run_prediction(kept, mutants, model, n=5, out_path=out)
        loaded = load_prediction_records(out)
        assert sorted(r.to_json().items() for r in loaded) == sorted(
            r.to_json().items() for r in full
        )
        # simulate an interrupted run: keep only the first half of the records
        partial = loaded[: len(loaded) // 2]
        out2 = str(tmp_path / "resumed.jsonl")
        resumed = run_prediction(
            kept, mutants, model, n=5, out_path=out2, resume=partial
        )
        key = lambda r: (r.problem_id, r.variant, r.sample_index, r.judgment)
        assert sorted(map(key, resumed)) == sorted(map(key, full))

    def test_torn_tail_dropped_malformed_line_raises(self, tmp_path, small_pairs):
        kept, mutants, pairs = small_pairs
        kept, mutants = kept[:2], mutants[:2]
        out = tmp_path / "records.jsonl"
        model = mock_model("ground_truth_given", pairs=pairs)
        full = run_prediction(kept, mutants, model, n=2, out_path=str(out))
        lines = out.read_bytes().splitlines(keepends=True)
        # a whole last record that lost only its newline is kept
        out.write_bytes(b"".join(lines)[:-1])
        assert load_prediction_records(str(out)) == full
        resumed = run_prediction(kept, mutants, model, n=2, out_path=str(out),
                                 resume=load_prediction_records(str(out)))
        assert resumed == full
        assert out.read_bytes() == b"".join(lines)
        # a torn tail cut inside a multi-byte character is dropped
        out.write_bytes(b"".join(lines) + '{"response": "é'.encode("utf-8")[:-1])
        assert load_prediction_records(str(out)) == full
        # a complete line that does not parse is not a torn tail
        out.write_bytes(lines[0][:-5] + b"\n" + b"".join(lines[1:]))
        with pytest.raises(json.JSONDecodeError):
            load_prediction_records(str(out))

    def test_repeated_and_distinct_answers_judged_each(self):
        """Within one task, answers that repeat and answers that differ each
        keep their own extraction and judgment."""
        original, mutant = make_pair()
        answer = "[ANSWER]assert f([4, 1, 3]) == {}[/ANSWER]".format
        correct, reverted, other = answer("[1, 3]"), answer("[4, 1]"), answer("[1]")
        unparsed = "no answer"
        script = {
            build_prediction_prompt(original): [correct, reverted, correct, other,
                                                unparsed, reverted, correct],
            build_prediction_prompt(mutant): [correct, correct, unparsed, correct,
                                              reverted, other, other],
        }
        records = run_prediction([original], [mutant],
                                 mock_model("scripted", script=script), n=7)
        got = [(r.variant, r.sample_index, r.extracted, r.judgment) for r in records]
        assert got == [
            ("original", 0, "[1, 3]", "correct"),
            ("original", 1, "[4, 1]", "reverted"),
            ("original", 2, "[1, 3]", "correct"),
            ("original", 3, "[1]", "other"),
            ("original", 4, None, "unparsed"),
            ("original", 5, "[4, 1]", "reverted"),
            ("original", 6, "[1, 3]", "correct"),
            # the mutant's own truth is [4, 1]
            ("mutated", 0, "[1, 3]", "reverted"),
            ("mutated", 1, "[1, 3]", "reverted"),
            ("mutated", 2, None, "unparsed"),
            ("mutated", 3, "[1, 3]", "reverted"),
            ("mutated", 4, "[4, 1]", "correct"),
            ("mutated", 5, "[1]", "other"),
            ("mutated", 6, "[1]", "other"),
        ]
        assert [r.response for r in records] == [t for texts in script.values() for t in texts]

    def test_transport_failure_counts_as_unanswered(self, small_pairs):
        kept, mutants, pairs = small_pairs
        kept, mutants = kept[:2], mutants[:2]

        class FailingModel:
            parallelism = 1
            default_mode = "zero_shot"

            def complete(self, prompt, n=1):
                raise TransportError("boom")

        records = run_prediction(kept, mutants, FailingModel(), n=5)
        assert len(records) == 2 * 2 * 5
        assert all(r.judgment == "unparsed" and r.error for r in records)

    def test_too_deeply_nested_answer_is_unparsed(self, small_pairs):
        kept, mutants, pairs = small_pairs
        kept, mutants = kept[:2], mutants[:2]
        inner = mock_model("fixed", text=ALWAYS_A_TEXT)

        class NestsFirstAnswer:
            parallelism = 1
            default_mode = "zero_shot"
            calls = 0

            def complete(self, prompt, n=1):
                self.calls += 1
                if self.calls == 1:
                    text = '{"a": ' * 5000 + "1" + "}" * 5000
                    return [ModelResponse(text=text, finish_reason="stop")] * n
                return inner.complete(prompt, n)

        records = run_choice(kept, mutants, NestsFirstAnswer())
        assert [r.judgment == "unparsed" for r in records] == [True, False, False, False]

    @pytest.mark.parametrize("run", [run_prediction, run_choice],
                             ids=["prediction", "choice"])
    def test_record_order_independent_of_parallelism(self, tmp_path, small_pairs, run):
        kept, mutants, pairs = small_pairs
        kept, mutants = kept[:4], mutants[:4]

        class EarlyCallsSlow:
            """Ground-truth answers; the k-th call waits (8 - k) * 20 ms,
            so concurrent requests finish in reverse order."""
            default_mode = "zero_shot"

            def __init__(self, parallelism):
                self.parallelism = parallelism
                self.inner = mock_model("ground_truth_given", pairs=pairs)
                self.calls = 0
                self.lock = threading.Lock()

            def complete(self, prompt, n=1):
                with self.lock:
                    k, self.calls = self.calls, self.calls + 1
                threading.Event().wait(max(0, 8 - k) * 0.02)
                return self.inner.complete(prompt, n)

        outputs = {}
        for parallelism in (1, 4):
            out = tmp_path / f"records-{parallelism}.jsonl"
            kwargs = {"n": 2} if run is run_prediction else {}
            run(kept, mutants, EarlyCallsSlow(parallelism), out_path=str(out), **kwargs)
            outputs[parallelism] = out.read_bytes()
        assert outputs[4] == outputs[1]

    def test_choice_two_runs_with_swapped_orders(self, small_pairs):
        kept, mutants, pairs = small_pairs
        kept, mutants = kept[:5], mutants[:5]
        model = mock_model("ground_truth_given", pairs=pairs)
        records = run_choice(kept, mutants, model)
        assert len(records) == 10
        by_problem = {}
        for r in records:
            by_problem.setdefault(r.problem_id, []).append(r)
        for group in by_problem.values():
            assert sorted(r.run_index for r in group) == [1, 2]
            assert {r.order for r in group} == {"original_first", "mutated_first"}
        # ground_truth_given picks A: run 1 chooses original, run 2 mutated
        for r in records:
            expected = "original" if r.order == "original_first" else "mutated"
            assert r.chosen == expected
            assert r.judgment == "correct"

    def test_always_a_choice_mapping(self, small_pairs):
        kept, mutants, pairs = small_pairs
        kept, mutants = kept[:4], mutants[:4]
        model = mock_model("fixed", text=ALWAYS_A_TEXT)
        records = run_choice(kept, mutants, model)
        chosen = [r.chosen for r in records]
        assert chosen.count("original") == chosen.count("mutated") == 4

    def test_choice_persistence_round_trip(self, tmp_path, small_pairs):
        kept, mutants, pairs = small_pairs
        kept, mutants = kept[:3], mutants[:3]
        out = str(tmp_path / "choice.jsonl")
        model = mock_model("ground_truth_given", pairs=pairs)
        records = run_choice(kept, mutants, model, out_path=out)
        assert load_choice_records(out) == records

    def test_scripted_replay_reproduces_metrics(self, tmp_path, small_pairs):
        from mutexec.llm_client import Transcript, scripted_from_transcript
        from mutexec.metrics import prediction_metrics

        kept, mutants, pairs = small_pairs
        kept, mutants = kept[:6], mutants[:6]
        transcript_path = str(tmp_path / "transcript.jsonl")
        live = mock_model("ground_truth_original", pairs=pairs,
                          transcript=Transcript(transcript_path))
        first = run_prediction(kept, mutants, live, n=5)
        replay = mock_model(
            "scripted", script=scripted_from_transcript(transcript_path)
        )
        second = run_prediction(kept, mutants, replay, n=5)
        assert prediction_metrics(second) == prediction_metrics(first)


def _sha256(path, drop_ts=False) -> str:
    data = path.read_bytes()
    if drop_ts:  # a transcript line starts with its wall-clock time
        data = re.sub(rb'^\{"ts": [^,]*, ', b"{", data, flags=re.MULTILINE)
    return hashlib.sha256(data).hexdigest()


class TestRunBytes:
    """The dataset, record and transcript bytes of a seeded small-corpus mock
    run, pinned at the commit before records were serialized by field name
    and ground truths were parsed once per task."""

    DIGESTS = {
        "dataset": "105ed79c321637c559b341d69f513b74e4ad4deee2f85aac2c62f9229310639e",
        "pred": "cfbe8cbf73011346bea8e82f2316dcfcba43541f780390fd2134676d4632f190",
        "choice": "2d978d8a6e6e9052393d9d71d8ef60e26e99815c840ba7183ef6a1b10665d116",
        "replay": "cfbe8cbf73011346bea8e82f2316dcfcba43541f780390fd2134676d4632f190",
        "transcript": "de53cec0f7276a685d75c5fd065140920b9948e0967e733c9779963ad753efad",
    }

    def test_digests(self, tmp_path, small_pairs):
        kept, mutants, pairs = small_pairs
        save_jsonl(kept + mutants, str(tmp_path / "dataset.jsonl"))
        transcript = tmp_path / "transcript.jsonl"
        model = mock_model("ground_truth_original", pairs=pairs,
                           transcript=Transcript(str(transcript)))
        run_prediction(kept, mutants, model, n=3, out_path=str(tmp_path / "pred.jsonl"))
        run_choice(kept, mutants, model, out_path=str(tmp_path / "choice.jsonl"))
        replay = mock_model("scripted", script=scripted_from_transcript(str(transcript)))
        run_prediction(kept, mutants, replay, n=3, out_path=str(tmp_path / "replay.jsonl"))
        digests = {name: _sha256(tmp_path / f"{name}.jsonl", name == "transcript")
                   for name in self.DIGESTS}
        assert digests == self.DIGESTS
