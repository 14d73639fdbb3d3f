"""Span tracing of one mutexec CLI command, installed from outside the package.

Run as ``python3 bench/tracing.py SPANS_OUT COMMAND_ID CLI_ARGS...``: it times
``import mutexec.cli`` in this fresh interpreter, wraps the public functions of
each layer where their callers look them up, calls ``cli.dispatch`` with
CLI_ARGS, and writes the spans to SPANS_OUT once the command has finished.
A span is (name, start, end, parent, tag); the command id is stored once per
file.  ``layer_metrics`` turns the span files of one workload into the
per-layer metrics that ``run.py`` prints.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# name -> unit, in the order they are printed; BENCHMARK.json lists the same.
PER_LAYER_UNITS: dict[str, str] = {
    "cli.import_s": "s",
    "datasets.build_dsl_list_s": "s",
    "datasets.ingest_external_s": "s",
    "datasets.ingest_rejected": "count",
    "grammar.compile_cfg_s": "s",
    "grammar.draws": "count",
    "grammar.draw_us": "us",
    "grammar.draws_per_program.a1d4": "count",
    "grammar.draws_per_program.a1d5": "count",
    "grammar.draws_per_program.a2d4": "count",
    "grammar.draws_per_program.a2d5": "count",
    "grammar.sample_ms.p50": "ms",
    "grammar.sample_ms.p99": "ms",
    "dsl.check_constraints_us": "us",
    "dsl.reject_share.s1": "ratio",
    "dsl.reject_share.s2": "ratio",
    "dsl.reject_share.s3": "ratio",
    "dsl.reject_share.s4": "ratio",
    "dsl.reject_share.runtime_error": "ratio",
    "dsl.reject_share.constant_output": "ratio",
    "dsl.accept_share": "ratio",
    "transpile.translate_us": "us",
    "transpile.translates_per_program": "count",
    "minipy.parse_us": "us",
    "minipy.parses_per_program": "count",
    "minipy.parses_per_candidate": "count",
    "minipy.interpret_us": "us",
    "minipy.steps_per_run": "count",
    "mutate.sites_per_problem": "count",
    "mutate.survivor_share": "ratio",
    "mutate.dropped_share": "ratio",
    "mutate.problem_ms.p50": "ms",
    "mutate.problem_ms.p99": "ms",
    "executors.builtin.run_us": "us",
    "executors.external.run_us.p50": "us",
    "executors.external.run_us.p99": "us",
    "executors.external.error_share.Timeout": "ratio",
    "executors.external.error_share.ExecutorCrashed": "ratio",
    "executors.external.error_share.BadResponse": "ratio",
    "executors.external.respawns": "count",
    "harness.prompt_us": "us",
    "harness.extract_us": "us",
    "harness.self_us_per_record": "us",
    "harness.unparsed_share": "ratio",
    "harness.load_records_ms": "ms",
    "llm_client.calls": "count",
    "llm_client.complete_us": "us",
    "llm_client.transcript_mb": "MB",
    "llm_client.scripted_load_s": "s",
    "metrics.aggregate_ms": "ms",
    "problems.load_jsonl_ms": "ms",
    "problems.save_jsonl_ms": "ms",
}

STEP_NAMES = ("build_s", "ingest_s", "mutate_s", "pred_s", "replay_s", "choice_s", "report_s")
for _step in STEP_NAMES:
    PER_LAYER_UNITS[f"trace_overhead.{_step}"] = "s"

EXECUTOR_FAULTS = ("Timeout", "ExecutorCrashed", "BadResponse")


class Tracer:
    """In-memory span recorder; spans are columns indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: list = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str, tag=None, outermost_only: bool = False):
        """Record a span per call; ``tag(args, result)`` adds a small value."""
        names, starts, ends, parents, tags, stack = (
            self.names, self.starts, self.ends, self.parents, self.tags, self.stack)
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if outermost_only and stack and names[stack[-1]] == name:
                return fn(*args, **kwargs)
            index = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            tags.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                starts[index] = start
                ends[index] = end
            if tag is not None:
                tags[index] = tag(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, tag=None, outermost_only=False):
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, tag, outermost_only))

    def dump(self, path: str, command_id: str, import_s: float) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "command": command_id,
                "import_s": import_s,
                "names": table,
                "name": [index[n] for n in self.names],
                "start": self.starts,
                "end": self.ends,
                "parent": self.parents,
                "tag": self.tags,
            }, fh)


def install(tracer: Tracer) -> None:
    """Wrap each layer's public functions where the callers look them up."""
    from mutexec import (cli, datasets, executors, grammar, harness, llm_client,
                         metrics, minipy, mutate, transpile)

    p = tracer.patch
    # datasets, and the grammar/transpile functions it imports by name
    p(datasets, "build_dsl_list", "datasets.build_dsl_list")
    p(datasets, "ingest_external", "datasets.ingest_external",
      tag=lambda a, r: len(r[1]))
    p(datasets, "compile_cfg", "grammar.compile_cfg")
    p(datasets, "sample_valid_program", "grammar.sample_valid_program",
      tag=lambda a, r: [a[0].arity, a[0].max_depth, r.attempts])
    p(datasets, "translate", "transpile.translate")
    # grammar internals used by sample_valid_program
    p(grammar.Sampler, "sample", "grammar.draw", outermost_only=True)
    p(grammar, "check_constraints", "dsl.check_constraints",
      tag=lambda a, r: min(v.rule for v in r) if r else "")
    p(grammar, "default_executor", "grammar.default_executor",
      tag=lambda a, r: r.status)
    p(grammar, "interpret", "minipy.interpret", tag=lambda a, r: r.steps)
    p(transpile, "translate", "transpile.translate")
    p(minipy, "parse", "minipy.parse")
    p(minipy, "interpret", "minipy.interpret", tag=lambda a, r: r.steps)
    # mutation and executors
    p(cli, "mutate_dataset", "mutate.mutate_dataset")
    p(mutate, "mutate_problem", "mutate.mutate_problem",
      tag=lambda a, r: [len(r.candidates), len(r.survivors), r.selected is not None])
    p(executors.BuiltinExecutor, "run", "executors.builtin.run")
    p(executors.ExternalExecutor, "run", "executors.external.run",
      tag=lambda a, r: "" if r.status == "ok" else (r.error_kind or ""))
    p(executors.ExternalExecutor, "_ensure", "executors.external.ensure",
      tag=lambda a, r: r.pid)
    # harness and model client
    for attr in ("run_prediction", "run_choice"):
        p(harness, attr, "harness.run",
          tag=lambda a, r: [len(r), sum(x.judgment == "unparsed" for x in r)])
    for attr in ("build_prediction_prompt", "build_choice_prompt"):
        p(harness, attr, "harness.prompt")
    for attr in ("extract_prediction", "extract_choice"):
        p(harness, attr, "harness.extract")
    p(harness, "_load_records", "harness.load_records")
    for cls in (llm_client.MockModel, llm_client.HttpModel):
        p(cls, "complete", "llm_client.complete", tag=lambda a, r: len(r))
    p(llm_client, "scripted_from_transcript", "llm_client.scripted_load")
    # metrics and problem persistence
    for attr in ("prediction_metrics", "choice_metrics", "loc_series"):
        p(metrics, attr, "metrics.aggregate")
    p(cli, "load_jsonl", "problems.load_jsonl")
    p(cli, "save_jsonl", "problems.save_jsonl")


def main(argv: list[str]) -> int:
    spans_out, command_id, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    from mutexec import cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    try:
        return cli.dispatch(cli_args)
    finally:
        tracer.dump(spans_out, command_id, import_s)


# ---------------------------------------------------------------------------
# Analysis, in the benchmark process


class Spans:
    """One command's spans, loaded from its file."""

    def __init__(self, data: dict):
        self.command = data["command"]
        self.import_s = data["import_s"]
        table = data["names"]
        self.name = [table[i] for i in data["name"]]
        self.start = data["start"]
        self.end = data["end"]
        self.parent = data["parent"]
        self.tag = data["tag"]
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, n in enumerate(self.name):
            self.by_name[n].append(i)
        child_time = [0.0] * len(self.name)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[i] - self.start[i]
        self.self_time = [self.end[i] - self.start[i] - child_time[i]
                          for i in range(len(self.name))]

    @classmethod
    def load(cls, path: str) -> "Spans":
        with open(path, encoding="utf-8") as fh:
            return cls(json.load(fh))

    def of(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def durations(self, name: str) -> list[float]:
        return [self.end[i] - self.start[i] for i in self.of(name)]


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(commands: list[Spans], iterations: int,
                  transcript_mb: float) -> dict[str, float]:
    """Per-layer metrics over every traced command of a workload.

    Times and ratios are over all calls; per-command totals (compile,
    build self time, ingest) are divided by the number of traced iterations.
    Layers a workload does not exercise read 0.
    """
    def all_durations(name):
        return [d for c in commands for d in c.durations(name)]

    def all_tags(name):
        return [c.tag[i] for c in commands for i in c.of(name)]

    def by_command(step):
        return [c for c in commands if c.command == step]

    m: dict[str, float] = {}
    iterations = max(iterations, 1)
    m["cli.import_s"] = percentile([c.import_s for c in commands], 0.5)

    build = by_command("build_s")
    m["datasets.build_dsl_list_s"] = sum(
        c.self_time[i] for c in build for i in c.of("datasets.build_dsl_list")) / iterations
    m["datasets.ingest_external_s"] = sum(all_durations("datasets.ingest_external")) / iterations
    m["datasets.ingest_rejected"] = sum(all_tags("datasets.ingest_external")) / iterations

    # grammar and dsl: raw draws and why each was rejected
    m["grammar.compile_cfg_s"] = sum(all_durations("grammar.compile_cfg")) / iterations
    programs = all_tags("grammar.sample_valid_program")
    draws = sum(t[2] for t in programs)
    m["grammar.draws"] = draws / iterations
    m["grammar.draw_us"] = 1e6 * _mean(all_durations("grammar.draw"))
    for arity in (1, 2):
        for depth in (4, 5):
            combo = [t[2] for t in programs if t[0] == arity and t[1] == depth]
            m[f"grammar.draws_per_program.a{arity}d{depth}"] = _mean(combo)
    sample_ms = [1e3 * d for d in all_durations("grammar.sample_valid_program")]
    m["grammar.sample_ms.p50"] = percentile(sample_ms, 0.5)
    m["grammar.sample_ms.p99"] = percentile(sample_ms, 0.99)
    m["dsl.check_constraints_us"] = 1e6 * _mean(all_durations("dsl.check_constraints"))
    rules = all_tags("dsl.check_constraints")
    for rule in ("s1", "s2", "s3", "s4"):
        m[f"dsl.reject_share.{rule}"] = _ratio(rules.count(rule), draws)
    runtime_errors = sum(s != "ok" for s in all_tags("grammar.default_executor"))
    accepted = len(programs)
    constant = draws - sum(r != "" for r in rules) - runtime_errors - accepted
    m["dsl.reject_share.runtime_error"] = _ratio(runtime_errors, draws)
    m["dsl.reject_share.constant_output"] = _ratio(constant, draws)
    m["dsl.accept_share"] = _ratio(accepted, draws)

    # translation and the mini-language
    m["transpile.translate_us"] = 1e6 * _mean(all_durations("transpile.translate"))
    m["transpile.translates_per_program"] = _ratio(
        sum(len(c.of("transpile.translate")) for c in build), accepted)
    m["minipy.parse_us"] = 1e6 * _mean(all_durations("minipy.parse"))
    m["minipy.parses_per_program"] = _ratio(
        sum(len(c.of("minipy.parse")) for c in build), accepted)
    mutate_cmds = by_command("mutate_s")
    problems = [t for c in mutate_cmds for i in c.of("mutate.mutate_problem")
                for t in [c.tag[i]]]
    candidates = sum(t[0] for t in problems)
    m["minipy.parses_per_candidate"] = _ratio(
        sum(len(c.of("minipy.parse")) for c in mutate_cmds), candidates)
    m["minipy.interpret_us"] = 1e6 * _mean(all_durations("minipy.interpret"))
    m["minipy.steps_per_run"] = _mean(all_tags("minipy.interpret"))

    # mutation and executors
    m["mutate.sites_per_problem"] = _mean(t[0] for t in problems)
    m["mutate.survivor_share"] = _ratio(sum(t[1] for t in problems), candidates)
    m["mutate.dropped_share"] = _ratio(sum(not t[2] for t in problems), len(problems))
    problem_ms = [1e3 * d for d in all_durations("mutate.mutate_problem")]
    m["mutate.problem_ms.p50"] = percentile(problem_ms, 0.5)
    m["mutate.problem_ms.p99"] = percentile(problem_ms, 0.99)
    m["executors.builtin.run_us"] = 1e6 * _mean(all_durations("executors.builtin.run"))
    external_us = [1e6 * d for d in all_durations("executors.external.run")]
    m["executors.external.run_us.p50"] = percentile(external_us, 0.5)
    m["executors.external.run_us.p99"] = percentile(external_us, 0.99)
    kinds = all_tags("executors.external.run")
    for kind in EXECUTOR_FAULTS:
        m[f"executors.external.error_share.{kind}"] = _ratio(kinds.count(kind), len(kinds))
    respawns = 0
    for c in commands:
        pids = {c.tag[i] for i in c.of("executors.external.ensure")}
        respawns += max(len(pids) - 1, 0)
    m["executors.external.respawns"] = respawns / iterations

    # harness and model client
    runs = [(c, i) for c in commands for i in c.of("harness.run")]
    records = sum(c.tag[i][0] for c, i in runs)
    m["harness.prompt_us"] = 1e6 * _mean(all_durations("harness.prompt"))
    m["harness.extract_us"] = 1e6 * _mean(all_durations("harness.extract"))
    m["harness.self_us_per_record"] = 1e6 * _ratio(
        sum(c.self_time[i] for c, i in runs), records)
    m["harness.unparsed_share"] = _ratio(sum(c.tag[i][1] for c, i in runs), records)
    m["harness.load_records_ms"] = 1e3 * _mean(all_durations("harness.load_records"))
    m["llm_client.calls"] = len(all_durations("llm_client.complete")) / iterations
    m["llm_client.complete_us"] = 1e6 * _mean(all_durations("llm_client.complete"))
    m["llm_client.transcript_mb"] = transcript_mb
    m["llm_client.scripted_load_s"] = sum(all_durations("llm_client.scripted_load")) / iterations

    # metrics and persistence; nested metric calls count once
    m["metrics.aggregate_ms"] = 1e3 * sum(
        c.end[i] - c.start[i] for c in commands for i in c.of("metrics.aggregate")
        if c.parent[i] < 0 or c.name[c.parent[i]] != "metrics.aggregate") / iterations
    m["problems.load_jsonl_ms"] = 1e3 * _mean(all_durations("problems.load_jsonl"))
    m["problems.save_jsonl_ms"] = 1e3 * _mean(all_durations("problems.save_jsonl"))
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
