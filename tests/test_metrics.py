import json

import pytest

from mutexec.harness import ChoiceRecord, PredictionRecord
from mutexec.metrics import (
    choice_metrics,
    loc_series,
    loc_series_csv,
    metrics_csv,
    pass_at_1,
    prediction_metrics,
    render_report,
)
from mutexec.problems import LOC_BINS
from reference import verify_partition


def pred(problem_id, variant, judgments, loc=5, is_bool=False):
    return [
        PredictionRecord(
            problem_id=problem_id, variant=variant, sample_index=i,
            response="", extracted=None, judgment=j, loc=loc,
            output_is_bool=is_bool,
        )
        for i, j in enumerate(judgments)
    ]


def choice(problem_id, run_index, order, chosen, judgment, loc=5, is_bool=False):
    return ChoiceRecord(
        problem_id=problem_id, run_index=run_index, order=order,
        response="", chosen=chosen, extracted=None, judgment=judgment,
        loc=loc, output_is_bool=is_bool,
    )


class TestPassAt1:
    def test_three_of_five(self):
        records = pred("p", "original", ["correct"] * 3 + ["other"] * 2)
        assert pass_at_1(records, "correct") == 0.6

    def test_zero_of_five(self):
        records = pred("p", "original", ["other"] * 5)
        assert pass_at_1(records, "correct") == 0.0

    def test_reverted_criterion(self):
        records = pred("p", "mutated", ["reverted"] * 2 + ["correct"] * 3)
        assert pass_at_1(records, "reverted") == 0.4


class TestPredictionMetrics:
    def test_aggregation(self):
        records = (
            pred("p1", "original", ["correct"] * 5)
            + pred("p1", "mutated", ["reverted"] * 5)
            + pred("p2", "original", ["correct", "other", "other", "other", "other"])
            + pred("p2", "mutated", ["correct"] * 5)
        )
        m = prediction_metrics(records)
        assert m.oc == pytest.approx(100 * (1.0 + 0.2) / 2)
        assert m.mc == pytest.approx(100 * (0.0 + 1.0) / 2)
        assert m.mr == pytest.approx(100 * (1.0 + 0.0) / 2)
        assert m.or_ == 0.0
        assert m.denominators["OC"] == 2

    def test_boolean_exclusion_from_reversion_only(self):
        records = (
            pred("p1", "original", ["correct"] * 5, is_bool=True)
            + pred("p1", "mutated", ["reverted"] * 5, is_bool=True)
            + pred("p2", "original", ["correct"] * 5)
            + pred("p2", "mutated", ["reverted"] * 5)
        )
        m = prediction_metrics(records)
        assert m.denominators["OC"] == 2  # correctness keeps bool problems
        assert m.denominators["MR"] == 1  # reversion excludes them
        assert m.denominators["boolean_excluded"] == 2  # one per variant
        assert m.mr == 100.0

    def test_unparsed_and_other_reported(self):
        records = pred("p1", "original", ["unparsed", "other", "correct",
                                          "correct", "correct"])
        m = prediction_metrics(records)
        assert m.unparsed_rate["original"] == pytest.approx(20.0)
        assert m.other_rate["original"] == pytest.approx(20.0)

    def test_permutation_invariant(self):
        records = (
            pred("p1", "original", ["correct", "other", "reverted", "unparsed",
                                    "correct"])
            + pred("p1", "mutated", ["reverted"] * 5)
        )
        forward = prediction_metrics(records)
        backward = prediction_metrics(list(reversed(records)))
        assert forward == backward


class TestChoiceMetrics:
    def test_all_original(self):
        records = [
            choice("p1", 1, "original_first", "original", "correct"),
            choice("p1", 2, "mutated_first", "original", "correct"),
        ]
        m = choice_metrics(records)
        assert m.pref == 100.0
        assert m.oc == 100.0
        assert m.denominators["MC"] == 0

    def test_half_contribution(self):
        records = [
            choice("p1", 1, "original_first", "original", "correct"),
            choice("p1", 2, "mutated_first", "mutated", "correct"),
        ]
        assert choice_metrics(records).pref == 50.0

    def test_unreadable_choice_excluded(self):
        records = [
            choice("p1", 1, "original_first", "original", "correct"),
            choice("p1", 2, "mutated_first", None, "unparsed"),
        ]
        m = choice_metrics(records)
        assert m.pref == 100.0
        assert m.denominators["Pref"] == 1
        assert m.denominators["unreadable_choice"] == 1

    def test_reversion_conditioned_on_choice_and_bool_exclusion(self):
        records = [
            choice("p1", 1, "original_first", "mutated", "reverted"),
            choice("p1", 2, "mutated_first", "mutated", "correct"),
            choice("p2", 1, "original_first", "mutated", "reverted", is_bool=True),
        ]
        m = choice_metrics(records)
        assert m.mc == pytest.approx(100 / 3)
        assert m.denominators["MR"] == 2  # bool problem excluded
        assert m.mr == pytest.approx(50.0)


class TestLocSeries:
    def test_single_bin_equals_global(self):
        records = pred("p1", "original", ["correct"] * 5, loc=5) + pred(
            "p1", "mutated", ["reverted"] * 5, loc=5
        )
        rows = loc_series(records, bins=((4, 8),))
        assert rows[0].problems == 1
        assert rows[0].metrics.oc == prediction_metrics(records).oc

    def test_empty_bin_reported(self):
        rows = loc_series([], bins=LOC_BINS)
        assert all(row.problems == 0 and row.metrics is None for row in rows)
        csv_text = loc_series_csv(rows)
        assert csv_text.splitlines()[1].endswith(",,,")

    def test_weighted_bins_reaggregate_to_global(self):
        records = []
        # 3 problems in [4,8), 1 problem in [8,12), different rates
        records += pred("a", "original", ["correct"] * 5, loc=5)
        records += pred("a", "mutated", ["correct"] * 5, loc=5)
        records += pred("b", "original", ["correct"] * 4 + ["other"], loc=6)
        records += pred("b", "mutated", ["other"] * 5, loc=6)
        records += pred("c", "original", ["other"] * 5, loc=7)
        records += pred("c", "mutated", ["correct"] * 5, loc=7)
        records += pred("d", "original", ["correct"] * 5, loc=9)
        records += pred("d", "mutated", ["reverted"] * 5, loc=9)
        rows = loc_series(records, bins=((4, 8), (8, 12)))
        total = prediction_metrics(records)
        weighted_oc = sum(
            row.metrics.oc * row.problems for row in rows
        ) / sum(row.problems for row in rows)
        assert weighted_oc == pytest.approx(total.oc)


class TestPartition:
    def test_partition_holds(self):
        records = pred("p1", "original", ["correct", "reverted", "other",
                                          "unparsed", "correct"])
        assert verify_partition(records, 5) == []

    def test_partition_violation_detected(self):
        records = pred("p1", "original", ["correct"] * 4)
        violations = verify_partition(records, 5)
        assert violations and "p1/original" in violations[0]


class TestRecompute:
    def test_metrics_identical_from_persisted_records(self, tmp_path):
        records = (
            pred("p1", "original", ["correct", "other", "reverted", "unparsed",
                                    "correct"])
            + pred("p1", "mutated", ["reverted"] * 5)
        )
        path = tmp_path / "records.jsonl"
        with open(path, "w") as fh:
            for r in records:
                fh.write(json.dumps(r.to_json()) + "\n")
        from mutexec.harness import load_prediction_records

        reloaded = load_prediction_records(str(path))
        assert prediction_metrics(reloaded) == prediction_metrics(records)


class TestRendering:
    def test_report_one_decimal(self):
        records = pred("p1", "original", ["correct"] * 3 + ["other"] * 2) + pred(
            "p1", "mutated", ["correct"] * 5
        )
        text = render_report("demo", prediction_metrics(records))
        assert "OC" in text and "60.0" in text

    def test_csv_includes_denominators(self):
        records = pred("p1", "original", ["correct"] * 5) + pred(
            "p1", "mutated", ["correct"] * 5
        )
        out = metrics_csv("lbl", prediction_metrics(records), None)
        lines = out.strip().splitlines()
        assert lines[0] == "label,experiment,metric,value,denominator"
        assert any(line.startswith("lbl,prediction,OC,100.0,1") for line in lines)
