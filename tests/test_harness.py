import json

import pytest
from conftest import read_fixture

from mutexec.harness import (
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
from mutexec.llm_client import ALWAYS_A_TEXT, TransportError, mock_model
from mutexec.problems import Problem


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
        for rhs in ("[1]+[2]", "f(2)", "len([1])", "x", "??"):
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

    def test_readable_choice_unreadable_literal(self):
        extraction = extract_choice('{"chosen_program": "A", "assertion": "nope"}')
        assert extraction.letter == "A"
        assert extraction.literal is None


class TestJudge:
    def test_exclusive_judgments(self):
        own, other = "[1, 3]", "[4, 1]"
        correct = extract_prediction("[ANSWER]assert f(0) == [1, 3][/ANSWER]")
        reverted = extract_prediction("[ANSWER]assert f(0) == [4, 1][/ANSWER]")
        neither = extract_prediction("[ANSWER]assert f(0) == [9][/ANSWER]")
        assert judge(correct, own, other) == "correct"
        assert judge(reverted, own, other) == "reverted"
        assert judge(neither, own, other) == "other"
        assert judge(None, own, other) == "unparsed"

    def test_strict_typing(self):
        extracted = extract_prediction("[ANSWER]assert f(0) == True[/ANSWER]")
        assert judge(extracted, "1", "0") == "other"  # True is not 1


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
