"""Aggregation of prediction/choice records into the evaluation metrics.

Prediction metrics are pass@1 fractions averaged over problems: OC/MC are
correctness on original/mutated variants, OR/MR are reversion rates (the
sample matched the paired program's output instead).  Reversion denominators
exclude problems whose output is a Boolean, where "the other output" is just
"the wrong answer".  Choice metrics condition correctness/reversion on which
program the model elected to reason about, and Preference is the rate of
electing the original; runs whose choice is unreadable are excluded from the
preference denominator and reported.

All metrics are percentages with their denominators carried alongside.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict

from .harness import ChoiceRecord, PredictionRecord
from .problems import LOC_BINS


def pass_at_1(records: list[PredictionRecord], criterion: str = "correct") -> float:
    """Fraction of a problem-variant's samples matching the criterion."""
    if not records:
        return 0.0
    return sum(1 for r in records if r.judgment == criterion) / len(records)


def _group(records: list[PredictionRecord]):
    groups: dict[tuple[str, str], list[PredictionRecord]] = defaultdict(list)
    for r in records:
        groups[(r.problem_id, r.variant)].append(r)
    return groups


class PredictionMetrics:
    __slots__ = ("oc", "mc", "or_", "mr", "denominators", "other_rate", "unparsed_rate")

    def __init__(self, oc: float, mc: float, or_: float, mr: float,
                 denominators: dict, other_rate: dict, unparsed_rate: dict):
        self.oc = oc
        self.mc = mc
        self.or_ = or_
        self.mr = mr
        self.denominators = denominators
        self.other_rate = other_rate  # per variant
        self.unparsed_rate = unparsed_rate

    def _fields(self) -> tuple:
        return (self.oc, self.mc, self.or_, self.mr, self.denominators,
                self.other_rate, self.unparsed_rate)

    def __eq__(self, other):
        if other.__class__ is not PredictionMetrics:
            return NotImplemented
        return self._fields() == other._fields()

    def as_row(self) -> dict:
        return {"OC": self.oc, "MC": self.mc, "OR": self.or_, "MR": self.mr}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def prediction_metrics(records: list[PredictionRecord]) -> PredictionMetrics:
    groups = _group(records)
    per_variant: dict[str, dict[str, list[float]]] = {
        "original": defaultdict(list),
        "mutated": defaultdict(list),
    }
    reversion: dict[str, list[float]] = {"original": [], "mutated": []}
    bool_excluded = 0
    for (_, variant), group in sorted(groups.items()):
        rates = per_variant[variant]
        for criterion in ("correct", "other", "unparsed"):
            rates[criterion].append(pass_at_1(group, criterion))
        if group[0].output_is_bool:
            bool_excluded += 1
        else:
            reversion[variant].append(pass_at_1(group, "reverted"))
    n_orig = len(per_variant["original"]["correct"])
    n_mut = len(per_variant["mutated"]["correct"])
    return PredictionMetrics(
        oc=100.0 * _mean(per_variant["original"]["correct"]),
        mc=100.0 * _mean(per_variant["mutated"]["correct"]),
        or_=100.0 * _mean(reversion["original"]),
        mr=100.0 * _mean(reversion["mutated"]),
        denominators={
            "OC": n_orig,
            "MC": n_mut,
            "OR": len(reversion["original"]),
            "MR": len(reversion["mutated"]),
            "boolean_excluded": bool_excluded,
        },
        other_rate={
            v: 100.0 * _mean(per_variant[v]["other"]) for v in ("original", "mutated")
        },
        unparsed_rate={
            v: 100.0 * _mean(per_variant[v]["unparsed"]) for v in ("original", "mutated")
        },
    )


class ChoiceMetrics:
    __slots__ = ("pref", "oc", "mc", "or_", "mr", "denominators")

    def __init__(self, pref: float, oc: float, mc: float, or_: float, mr: float,
                 denominators: dict):
        self.pref = pref
        self.oc = oc
        self.mc = mc
        self.or_ = or_
        self.mr = mr
        self.denominators = denominators

    def as_row(self) -> dict:
        return {"Pref": self.pref, "OC": self.oc, "MC": self.mc,
                "OR": self.or_, "MR": self.mr}


def choice_metrics(records: list[ChoiceRecord]) -> ChoiceMetrics:
    readable = [r for r in records if r.chosen is not None]
    unreadable = len(records) - len(readable)
    pref = 100.0 * _mean([1.0 if r.chosen == "original" else 0.0 for r in readable])

    def rate(chosen: str, criterion: str, exclude_bool: bool) -> tuple[float, int]:
        pool = [r for r in readable if r.chosen == chosen]
        if exclude_bool:
            pool = [r for r in pool if not r.output_is_bool]
        if not pool:
            return 0.0, 0
        hits = sum(1 for r in pool if r.judgment == criterion)
        return 100.0 * hits / len(pool), len(pool)

    oc, n_oc = rate("original", "correct", False)
    mc, n_mc = rate("mutated", "correct", False)
    or_, n_or = rate("original", "reverted", True)
    mr, n_mr = rate("mutated", "reverted", True)
    return ChoiceMetrics(
        pref=pref, oc=oc, mc=mc, or_=or_, mr=mr,
        denominators={
            "Pref": len(readable), "unreadable_choice": unreadable,
            "OC": n_oc, "MC": n_mc, "OR": n_or, "MR": n_mr,
        },
    )


# ---------------------------------------------------------------------------
# LOC-binned series


class LocBinRow:
    __slots__ = ("lo", "hi", "problems", "metrics")

    def __init__(self, lo: int, hi: int, problems: int, metrics: PredictionMetrics | None):
        self.lo = lo
        self.hi = hi
        self.problems = problems
        self.metrics = metrics

    def as_csv_row(self) -> list:
        if self.metrics is None:
            return [self.lo, self.hi, self.problems, None, None, None, None]
        m = self.metrics
        return [self.lo, self.hi, self.problems,
                round(m.oc, 4), round(m.mc, 4), round(m.or_, 4), round(m.mr, 4)]


def loc_series(
    records: list[PredictionRecord],
    bins: tuple[tuple[int, int], ...] = LOC_BINS,
) -> list[LocBinRow]:
    """Per-bin prediction metrics as a function of lines of code."""
    rows = []
    for lo, hi in bins:
        subset = [r for r in records if lo <= r.loc < hi]
        problems = len({r.problem_id for r in subset})
        rows.append(
            LocBinRow(lo, hi, problems, prediction_metrics(subset) if subset else None)
        )
    return rows


def loc_series_csv(rows: list[LocBinRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["loc_lo", "loc_hi", "problems", "OC", "MC", "OR", "MR"])
    for row in rows:
        writer.writerow(row.as_csv_row())
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Report rendering


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.1f}"


def render_report(
    label: str,
    prediction: PredictionMetrics | None = None,
    choice: ChoiceMetrics | None = None,
) -> str:
    """Aligned plain-text table for one (dataset, model) run."""
    sections = []
    if prediction is not None:
        sections.append(("Execution Prediction", prediction, [
            f"  (boolean-output problems excluded from reversion: "
            f"{prediction.denominators.get('boolean_excluded', 0)})",
            *(f"  {variant}: other {_fmt(prediction.other_rate[variant])}%, "
              f"unparsed {_fmt(prediction.unparsed_rate[variant])}%"
              for variant in ("original", "mutated"))]))
    if choice is not None:
        sections.append(("Execution Choice", choice, [
            f"  (runs with unreadable choice excluded from Pref: "
            f"{choice.denominators.get('unreadable_choice', 0)})"]))
    lines = [f"== {label} =="]
    for title, metrics, notes in sections:
        lines += [title, "  metric   value   denominator"]
        lines += [f"  {name:<6} {_fmt(value):>7}   {metrics.denominators.get(name, 0)}"
                  for name, value in metrics.as_row().items()]
        lines += notes
    return "\n".join(lines) + "\n"


def metrics_csv(label: str, prediction: PredictionMetrics | None,
                choice: ChoiceMetrics | None) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["label", "experiment", "metric", "value", "denominator"])
    for experiment, metrics in (("prediction", prediction), ("choice", choice)):
        if metrics is not None:
            for name, value in metrics.as_row().items():
                writer.writerow([label, experiment, name, f"{value:.1f}",
                                 metrics.denominators.get(name, 0)])
    return buf.getvalue()
