"""Output checks for the benchmark, each against a reference independent of
the code path that produced the artifact.

Every check returns a list of problems found (empty when the artifact is
correct).  ``run.py`` counts a check with any problem as one failed
operation and prints the first few problems.
"""

from __future__ import annotations

import ast
import csv
import hashlib
import io
import json
import os
from collections import defaultdict


def read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _args(input_text: str) -> tuple:
    return ast.literal_eval("(" + input_text + ",)") if input_text.strip() else ()


def host_output(source: str, function_name: str, input_text: str) -> str:
    """repr of running the source with the host interpreter."""
    namespace: dict = {}
    exec(compile(source, "<problem>", "exec"), namespace)
    return repr(namespace[function_name](*_args(input_text)))


def ground_truths_match_term_evaluator(problems: list[dict]) -> list[str]:
    """Stored dsl-list outputs equal ``dsl.eval_dsl`` on the stored term."""
    from mutexec.dsl import eval_dsl, parse_sexpr

    bad = []
    for p in problems:
        try:
            got = repr(eval_dsl(parse_sexpr(p["dsl_text"]), _args(p["input"])))
        except Exception as exc:  # any failure is a mismatch to report
            got = f"<{type(exc).__name__}>"
        if got != p["output"]:
            bad.append(f"{p['id']}: stored {p['output']} but eval_dsl gives {got}")
    return bad


def outputs_match_host(problems: list[dict]) -> list[str]:
    """Stored outputs equal a host-interpreter run of the stored source."""
    bad = []
    for p in problems:
        try:
            got = host_output(p["source"], p["function_name"], p["input"])
        except Exception as exc:
            got = f"<{type(exc).__name__}>"
        if got != p["output"]:
            bad.append(f"{p['id']}: stored {p['output']} but the host gives {got}")
    return bad


def pairs_are_consistent(originals: list[dict], mutants: list[dict]) -> list[str]:
    """Ids are unique and one-to-one in order; paired outputs always differ."""
    bad = []
    ids = [p["id"] for p in originals]
    if len(set(ids)) != len(ids):
        bad.append("duplicate ids among originals")
    if ids != [p["id"] for p in mutants]:
        bad.append("original and mutant ids are not one-to-one in order")
    if not originals:
        bad.append("no pairs")
    for o, m in zip(originals, mutants):
        if o["output"] == m["output"]:
            bad.append(f"{o['id']}: paired outputs are equal ({o['output']})")
        if o["source"] == m["source"]:
            bad.append(f"{o['id']}: mutant source equals the original")
    return bad


def record_count(records: list[dict], expected: int, what: str) -> list[str]:
    if len(records) != expected:
        return [f"{what}: {len(records)} records, expected {expected}"]
    return []


def records_without_error(records: list[dict], what: str) -> list[str]:
    return [f"{what}: {r['problem_id']} has error {r['error']!r}"
            for r in records if r.get("error") is not None]


def predictions_all_correct(records: list[dict]) -> list[str]:
    """A model answering with the shown program's ground truth is always right."""
    return [f"{r['problem_id']}/{r['variant']}/{r['sample_index']}: {r['judgment']}"
            for r in records if r["judgment"] != "correct"]


def choices_pick_original_correctly(records: list[dict]) -> list[str]:
    """A model that always reasons about the original picks it and is right."""
    return [f"{r['problem_id']}/{r['run_index']}: chose {r['chosen']}, {r['judgment']}"
            for r in records
            if r["chosen"] != "original" or r["judgment"] != "correct"]


def files_identical(path_a: str, path_b: str) -> list[str]:
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        if fa.read() != fb.read():
            return [f"{os.path.basename(path_b)} differs from {os.path.basename(path_a)}"]
    return []


def same_mutant_sets(reference: list[dict], got: list[dict], what: str) -> list[str]:
    """Same ids, sources and outputs, in the same order."""
    def key(p):
        return (p["id"], p["source"], p["output"])

    ref = [key(p) for p in reference]
    out = [key(p) for p in got]
    if ref == out:
        return []
    bad = [f"{what}: {len(out)} entries, reference has {len(ref)}"]
    bad += [f"{what}: {a[0]} differs from the reference"
            for a, b in zip(ref, out) if a != b]
    return bad


# ---------------------------------------------------------------------------
# Report metrics, recomputed from the records


def _percent(hits: int, total: int) -> float:
    return 100.0 * hits / total if total else 0.0


def expected_metric_rows(pred: list[dict], choice: list[dict]) -> dict:
    """(experiment, metric) -> (value, denominator), from the metric definitions.

    Prediction: pass@1 per problem-variant averaged over problems; reversion
    excludes problems with a Boolean output on either side.  Choice: rates
    conditioned on the chosen program; Pref is the share choosing the original.
    """
    rows = {}
    groups: dict[tuple[str, str], list[dict]] = defaultdict(list)
    for r in pred:
        groups[(r["problem_id"], r["variant"])].append(r)
    for variant, correct_name, revert_name in (
        ("original", "OC", "OR"), ("mutated", "MC", "MR"),
    ):
        correct, reverted = [], []
        for (_, v), group in groups.items():
            if v != variant:
                continue
            correct.append(sum(r["judgment"] == "correct" for r in group) / len(group))
            if not group[0]["output_is_bool"]:
                reverted.append(
                    sum(r["judgment"] == "reverted" for r in group) / len(group)
                )
        rows[("prediction", correct_name)] = (
            100.0 * sum(correct) / len(correct) if correct else 0.0, len(correct))
        rows[("prediction", revert_name)] = (
            100.0 * sum(reverted) / len(reverted) if reverted else 0.0, len(reverted))

    readable = [r for r in choice if r["chosen"] is not None]
    rows[("choice", "Pref")] = (
        _percent(sum(r["chosen"] == "original" for r in readable), len(readable)),
        len(readable))
    for name, chosen, judgment, exclude_bool in (
        ("OC", "original", "correct", False), ("MC", "mutated", "correct", False),
        ("OR", "original", "reverted", True), ("MR", "mutated", "reverted", True),
    ):
        pool = [r for r in readable if r["chosen"] == chosen
                and not (exclude_bool and r["output_is_bool"])]
        rows[("choice", name)] = (
            _percent(sum(r["judgment"] == judgment for r in pool), len(pool)), len(pool))
    return rows


def report_csv_matches(csv_text: str, pred: list[dict], choice: list[dict]) -> list[str]:
    expected = expected_metric_rows(pred, choice)
    got = {}
    for row in list(csv.DictReader(io.StringIO(csv_text))):
        got[(row["experiment"], row["metric"])] = (float(row["value"]), int(row["denominator"]))
    bad = []
    if set(got) != set(expected):
        bad.append(f"metric rows {sorted(got)} != {sorted(expected)}")
    for key in sorted(set(got) & set(expected)):
        (value, denominator), (want, want_den) = got[key], expected[key]
        # the CSV rounds to one decimal
        if denominator != want_den or abs(value - want) > 0.05 + 1e-9:
            bad.append(f"{key}: csv {value}/{denominator}, recomputed {want:.3f}/{want_den}")
    return bad


# ---------------------------------------------------------------------------
# Artifact digests


def _normalized_transcript(path: str) -> bytes:
    """Transcript lines without their wall-clock timestamp."""
    out = []
    for entry in read_jsonl(path):
        entry.pop("ts", None)
        out.append(json.dumps(entry, sort_keys=True, ensure_ascii=False))
    return ("\n".join(out) + "\n").encode("utf-8")


def artifact_digests(workdir: str) -> dict[str, str]:
    """sha256 of every file under ``workdir``, keyed by relative path.

    Commands run with relative paths inside ``workdir``, so manifests are
    byte-stable; transcripts are hashed without their timestamps.
    """
    digests = {}
    for dirpath, _, filenames in os.walk(workdir):
        for name in filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, workdir)
            if name.startswith("transcript"):
                data = _normalized_transcript(path)
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
            digests[rel] = hashlib.sha256(data).hexdigest()
    return dict(sorted(digests.items()))


def combined_digest(digests: dict[str, str]) -> str:
    text = "".join(f"{name} {digest}\n" for name, digest in sorted(digests.items()))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
