#!/usr/bin/env python3
"""Benchmark of the mutexec CLI: three closed-loop workloads, one command
process at a time, with output checks and an optional traced run.

Usage, from the repository root:

    python3 bench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

``--workload`` is ``pipeline``, ``evaluate`` or ``external`` (see README.md in
this directory for why each exists).  The workload's inputs are generated from
``--seed``; each CLI command then runs as its own process, after the previous
one exits, in a fresh directory under ``.bench_tmp/`` that is removed
afterwards.  The timed section repeats until ``--seconds`` have passed.

With ``--trace 0`` the end-to-end metrics come from these untraced runs.  With
``--trace 1`` every untraced repetition is followed by one traced repetition,
in which each command runs under ``tracing.py``; the per-layer metrics and the
tracing overhead per command come from it.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
SETUP_REPEATS = 3
COMMAND_LIMIT_S = 150.0
sys.path[:0] = [SRC, BENCH]

import checks  # noqa: E402
import tracing  # noqa: E402
from spawn import reference_s  # noqa: E402

# name -> (unit, better); BENCHMARK.json gates the ones in GATED.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "wall_ref": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "build_s": ("s", "lower"),
    "ingest_s": ("s", "lower"),
    "mutate_s": ("s", "lower"),
    "pred_s": ("s", "lower"),
    "replay_s": ("s", "lower"),
    "choice_s": ("s", "lower"),
    "report_s": ("s", "lower"),
    "programs_per_s": ("1/s", "higher"),
    "candidates_per_s": ("1/s", "higher"),
    "records_per_s": ("1/s", "higher"),
    "failed_share": ("ratio", "lower"),
}
GATED = ("setup_s", "wall_ref", "peak_rss_mb")


@dataclass(frozen=True)
class Size:
    programs_per_combo: int  # pipeline build-dsl-list
    per_bin: int  # pipeline build-dsl-list
    pipeline_n: int  # pipeline run-pred samples per variant
    setup_per_combo: int  # evaluate/external set-up pool: sampled per combo
    setup_programs: int  # evaluate/external set-up pool: programs per arity
    evaluate_pairs: int  # evaluate: pairs in the input
    evaluate_n: int  # evaluate run-pred samples per variant
    external_candidates: int  # external: mutant candidates of the chosen problems


# evaluate costs per record, so its input has a fixed pair count; external
# costs per mutant candidate, and programs differ in candidates by +-20% per
# seed, so its input is cut at a fixed candidate count instead.
SIZES = {
    "full": Size(programs_per_combo=220, per_bin=1, pipeline_n=5, setup_per_combo=30,
                 setup_programs=18, evaluate_pairs=60, evaluate_n=50,
                 external_candidates=540),
    "tiny": Size(programs_per_combo=60, per_bin=1, pipeline_n=2, setup_per_combo=6,
                 setup_programs=3, evaluate_pairs=6, evaluate_n=3,
                 external_candidates=40),
}


# ---------------------------------------------------------------------------
# Command processes


@dataclass
class CommandResult:
    argv: list[str]
    wall_s: float
    rss_mb: float
    code: int
    references: list[float]  # spawn.reference_s() samples taken while it ran


def child_env(tmpdir: str) -> dict[str, str]:
    env = dict(os.environ)
    # commands load cached bytecode, as an installed package does; the
    # set-up's warm-up writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = tmpdir
    return env


class Launcher:
    """Runs each command process to completion through ``spawn.py``."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: str, log_prefix: str,
            sample: bool = True) -> CommandResult:
        """``sample``: time the reference task while the command runs."""
        request = {"argv": argv, "cwd": cwd, "env": child_env(cwd), "limit_s": COMMAND_LIMIT_S,
                   "out": log_prefix + ".out", "err": log_prefix + ".err", "sample": sample}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the command launcher exited")
        reply = json.loads(line)
        return CommandResult(argv, reply["wall_s"], reply["rss_mb"], reply["code"],
                             reply["references"])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def cli_argv(args: list[str], spans: str | None = None, step: str = "") -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "mutexec.cli", *args]
    return [sys.executable, os.path.join(BENCH, "tracing.py"), spans, step, *args]


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Prepared:
    """Set-up output: files copied into every repetition, plus references."""

    inputs: dict[str, str] = field(default_factory=dict)  # name -> path
    originals: list[dict] = field(default_factory=list)
    mutants: list[dict] = field(default_factory=list)
    reference_kept: list[dict] = field(default_factory=list)
    reference_mutants: list[dict] = field(default_factory=list)


def warm_up(launcher: Launcher, setup_dir: str) -> list[CommandResult]:
    """Import every module once so bytecode caches exist before timing."""
    return [
        launcher.run(cli_argv(["--version"]), setup_dir, os.path.join(setup_dir, "warm-cli")),
        launcher.run([sys.executable, "-m", "mutexec.python_exec"], setup_dir,
                     os.path.join(setup_dir, "warm-exec")),
    ]


def build_pairs(seed: int, size: Size, work, budget: int):
    """The first pairs of an in-process paired dataset whose ``work`` sums to
    at least ``budget``."""
    from mutexec import datasets
    from mutexec.executors import BuiltinExecutor
    from mutexec.mutate import mutate_dataset

    config = datasets.DslListConfig(
        seed=seed, programs_per_combo=size.setup_per_combo,
        per_bin=size.setup_programs, bins=((4, 24),))
    problems = datasets.build_dsl_list(config)
    kept, mutants = mutate_dataset(problems, BuiltinExecutor(), seed=seed)
    total = 0
    for count, pair in enumerate(zip(kept, mutants), start=1):
        total += work(*pair)
        if total >= budget:
            return kept[:count], mutants[:count]
    raise RuntimeError(f"set-up pool has {total} units of work, need {budget}")


def setup_pipeline(seed, size, setup_dir):
    return Prepared()


def setup_evaluate(seed, size, setup_dir):
    from mutexec.problems import save_jsonl

    kept, mutants = build_pairs(seed, size, lambda o, m: 1, size.evaluate_pairs)
    prepared = Prepared(originals=[p.to_json() for p in kept],
                        mutants=[p.to_json() for p in mutants])
    for name, problems in (("originals.jsonl", kept), ("mutants.jsonl", mutants)):
        path = os.path.join(setup_dir, name)
        save_jsonl(problems, path)
        prepared.inputs[name] = path
    return prepared


def setup_external(seed, size, setup_dir):
    from mutexec.executors import BuiltinExecutor
    from mutexec.mutate import mutate_dataset, mutation_sites

    kept, mutants = build_pairs(seed, size, lambda o, m: len(mutation_sites(o.source)),
                                size.external_candidates)
    path = os.path.join(setup_dir, "raw.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for p in kept:
            fh.write(json.dumps({"source": p.source, "function_name": p.function_name,
                                 "input": p.input}) + "\n")
    # the builtin mutant set for the ids ingest assigns is the reference
    renamed = [replace(p, id=f"ext-{i:04d}") for i, p in enumerate(kept)]
    ref_kept, ref_mutants = mutate_dataset(renamed, BuiltinExecutor(), seed=seed)
    return Prepared(inputs={"raw.jsonl": path},
                    originals=[p.to_json() for p in kept],
                    mutants=[p.to_json() for p in mutants],
                    reference_kept=[p.to_json() for p in ref_kept],
                    reference_mutants=[p.to_json() for p in ref_mutants])


def _pairs_args(model: str) -> list[str]:
    return ["--orig", "pairs/originals.jsonl", "--mut", "pairs/mutants.jsonl",
            "--model", model, "--parallelism", "1"]


def steps_pipeline(seed, size):
    s = str(seed)
    return [
        ("build_s", ["build-dsl-list", "--seed", s,
                     "--programs-per-combo", str(size.programs_per_combo),
                     "--per-bin", str(size.per_bin), "--out", "dsl.jsonl"]),
        ("mutate_s", ["mutate", "--in", "dsl.jsonl", "--out", "pairs", "--seed", s,
                      "--executor", "builtin"]),
        ("pred_s", ["run-pred", *_pairs_args("mock:ground-truth-given"),
                    "--n", str(size.pipeline_n), "--out", "pred.jsonl"]),
        ("choice_s", ["run-choice", *_pairs_args("mock:ground-truth-original"),
                      "--out", "choice.jsonl"]),
        ("report_s", ["report", "--pred", "pred.jsonl", "--choice", "choice.jsonl",
                      "--label", "bench", "--out", "report.txt", "--csv", "metrics.csv",
                      "--loc-csv", "loc.csv"]),
    ]


def steps_evaluate(seed, size):
    pairs = ["--orig", "originals.jsonl", "--mut", "mutants.jsonl", "--parallelism", "1"]
    n = str(size.evaluate_n)
    return [
        ("pred_s", ["run-pred", *pairs, "--model", "mock:ground-truth-given", "--n", n,
                    "--transcript", "transcript.jsonl", "--out", "pred.jsonl"]),
        ("replay_s", ["run-pred", *pairs, "--model", "mock:scripted:transcript.jsonl",
                      "--n", n, "--out", "replay.jsonl"]),
        ("choice_s", ["run-choice", *pairs, "--model", "mock:ground-truth-original",
                      "--out", "choice.jsonl"]),
        ("report_s", ["report", "--pred", "pred.jsonl", "--choice", "choice.jsonl",
                      "--label", "bench", "--out", "report.txt", "--csv", "metrics.csv",
                      "--loc-csv", "loc.csv"]),
    ]


def steps_external(seed, size):
    return [
        # the length and step filters are opened so that every record is kept
        ("ingest_s", ["ingest", "--in", "raw.jsonl", "--out", "ingested.jsonl",
                      "--executor", "external", "--min-chars", "1",
                      "--max-chars", "100000", "--max-steps", "1000000"]),
        ("mutate_s", ["mutate", "--in", "ingested.jsonl", "--out", "pairs",
                      "--seed", str(seed), "--executor", "external"]),
    ]


# ---------------------------------------------------------------------------
# Checks and counts per repetition


def _checked(results: list, name: str, fn, *args) -> None:
    try:
        problems = fn(*args)
    except Exception as exc:  # a missing or malformed artifact fails the check
        problems = [f"{type(exc).__name__}: {exc}"]
    results.append((name, problems))


def check_pipeline(work, size, prepared):
    def read(name):
        return checks.read_jsonl(os.path.join(work, name))

    out: list = []
    counts = {"programs": 4 * size.programs_per_combo}
    _checked(out, "ground truths = eval_dsl",
             lambda: checks.ground_truths_match_term_evaluator(read("dsl.jsonl")))
    _checked(out, "pairs one-to-one, outputs differ", lambda: checks.pairs_are_consistent(
        read("pairs/originals.jsonl"), read("pairs/mutants.jsonl")))
    _checked(out, "pair outputs = host run", lambda: checks.outputs_match_host(
        read("pairs/originals.jsonl") + read("pairs/mutants.jsonl")))
    _records_checks(out, work, size.pipeline_n, "pairs/mutants.jsonl", counts)
    counts["candidates"] = _candidates(os.path.join(work, "dsl.jsonl"))
    return out, counts


def check_evaluate(work, size, prepared):

    out: list = []
    counts: dict = {}
    _records_checks(out, work, size.evaluate_n, "mutants.jsonl", counts)
    _checked(out, "replay = replayed run", checks.files_identical,
             os.path.join(work, "pred.jsonl"), os.path.join(work, "replay.jsonl"))
    counts["records"] += len(checks.read_jsonl(os.path.join(work, "replay.jsonl")))
    counts["transcript_mb"] = os.path.getsize(os.path.join(work, "transcript.jsonl")) / 1e6
    return out, counts


def _records_checks(out, work, n, mutants_name, counts):

    pairs = len(checks.read_jsonl(os.path.join(work, mutants_name)))
    pred = choice = []
    try:
        pred = checks.read_jsonl(os.path.join(work, "pred.jsonl"))
        choice = checks.read_jsonl(os.path.join(work, "choice.jsonl"))
    except (OSError, ValueError) as exc:
        out.append(("records readable", [f"{type(exc).__name__}: {exc}"]))
    _checked(out, "record counts",
             lambda: checks.record_count(pred, pairs * 2 * n, "run-pred")
             + checks.record_count(choice, pairs * 2, "run-choice"))
    _checked(out, "records without error",
             lambda: checks.records_without_error(pred, "run-pred")
             + checks.records_without_error(choice, "run-choice"))
    _checked(out, "ground-truth-given predictions correct",
             checks.predictions_all_correct, pred)
    _checked(out, "ground-truth-original choices",
             checks.choices_pick_original_correctly, choice)

    def csv_check():
        with open(os.path.join(work, "metrics.csv"), encoding="utf-8") as fh:
            return checks.report_csv_matches(fh.read(), pred, choice)

    _checked(out, "report csv = recomputed metrics", csv_check)
    counts["pairs"] = pairs
    counts["records"] = len(pred) + len(choice)


def check_external(work, size, prepared):
    def read(name):
        return checks.read_jsonl(os.path.join(work, name))

    out: list = []
    _checked(out, "no ingest rejections", lambda: [
        f"rejected: {r}" for r in read("ingested.jsonl.rejected.jsonl")])
    _checked(out, "ingested outputs = host run",
             lambda: checks.outputs_match_host(read("ingested.jsonl")))
    _checked(out, "pairs one-to-one, outputs differ", lambda: checks.pairs_are_consistent(
        read("pairs/originals.jsonl"), read("pairs/mutants.jsonl")))
    _checked(out, "mutant outputs = host run",
             lambda: checks.outputs_match_host(read("pairs/mutants.jsonl")))
    _checked(out, "external mutant set = builtin", lambda: checks.same_mutant_sets(
        prepared.reference_kept, read("pairs/originals.jsonl"), "originals")
        + checks.same_mutant_sets(prepared.reference_mutants, read("pairs/mutants.jsonl"),
                                  "mutants"))
    counts = {"pairs": len(read("pairs/mutants.jsonl")),
              "candidates": _candidates(os.path.join(work, "ingested.jsonl"))}
    return out, counts


def check_setup(prepared: Prepared) -> list:
    """Set-up datasets of evaluate/external: sampled truths and pairs."""

    out: list = []
    if prepared.originals:
        _checked(out, "set-up ground truths = eval_dsl",
                 checks.ground_truths_match_term_evaluator, prepared.originals)
        _checked(out, "set-up pairs one-to-one, outputs differ", checks.pairs_are_consistent,
                 prepared.originals, prepared.mutants)
        _checked(out, "set-up pair outputs = host run", checks.outputs_match_host,
                 prepared.originals + prepared.mutants)
    return out


def _candidates(problems_path: str) -> int:
    from mutexec.mutate import mutation_sites

    return sum(len(mutation_sites(p["source"])) for p in checks.read_jsonl(problems_path))


@dataclass(frozen=True)
class Workload:
    setup: object
    steps: object
    check: object


WORKLOADS = {
    "pipeline": Workload(setup_pipeline, steps_pipeline, check_pipeline),
    "evaluate": Workload(setup_evaluate, steps_evaluate, check_evaluate),
    "external": Workload(setup_external, steps_external, check_external),
}


# ---------------------------------------------------------------------------
# Repetitions


@dataclass
class Repetition:
    steps: dict[str, float]
    commands: list[CommandResult]
    wall_s: float
    wall_ref: float
    digests: dict[str, str]
    checks: list
    counts: dict
    spans: list = field(default_factory=list)


def run_repetition(launcher: Launcher, workload: Workload, seed: int, size: Size,
                   prepared: Prepared, run_dir: str, index: int, traced: bool,
                   after_step=None) -> Repetition:
    rep_dir = os.path.join(run_dir, f"rep{index}{'-traced' if traced else ''}")
    work, logs = os.path.join(rep_dir, "work"), os.path.join(rep_dir, "logs")
    os.makedirs(work)
    os.makedirs(logs)
    try:
        for name, path in prepared.inputs.items():
            shutil.copyfile(path, os.path.join(work, name))
        steps, commands, wall_ref = {}, [], 0.0
        reference = reference_s()
        for step, args in workload.steps(seed, size):
            spans = os.path.join(logs, step + ".spans.json") if traced else None
            # pausing a traced command would stretch the spans that cover the pause
            result = launcher.run(cli_argv(args, spans, step), work, os.path.join(logs, step),
                                  sample=not traced)
            steps[step] = result.wall_s
            commands.append(result)
            after = reference_s()
            wall_ref += result.wall_s / statistics.mean([reference, *result.references, after])
            reference = after
            if after_step is not None:
                after_step(step, work)
        wall = sum(steps.values())
        digests = checks.artifact_digests(work)
        results, counts = [], {}
        try:
            results, counts = workload.check(work, size, prepared)
        except Exception as exc:  # an artifact the counts need is missing
            results = [("artifacts readable", [f"{type(exc).__name__}: {exc}"])]
        loaded = []
        if traced:
            for step in steps:
                path = os.path.join(logs, step + ".spans.json")
                if os.path.exists(path):
                    loaded.append(tracing.Spans.load(path))
        return Repetition(steps, commands, wall, wall_ref, digests, results, counts, loaded)
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def end_to_end(rep: Repetition) -> dict[str, float]:
    m = dict(rep.steps)
    m["wall_s"] = rep.wall_s
    m["wall_ref"] = rep.wall_ref
    m["peak_rss_mb"] = max(c.rss_mb for c in rep.commands)
    counts = rep.counts
    if "programs" in counts:
        m["programs_per_s"] = counts["programs"] / rep.steps["build_s"]
    if "candidates" in counts:
        m["candidates_per_s"] = counts["candidates"] / rep.steps["mutate_s"]
    if "records" in counts:
        model_s = sum(rep.steps[s] for s in ("pred_s", "replay_s", "choice_s") if s in rep.steps)
        m["records_per_s"] = counts["records"] / model_s
    return m


# ---------------------------------------------------------------------------
# One benchmark run


@dataclass
class RunResult:
    workload: str
    seed: int
    commands: list[list[str]]
    samples: dict[str, list[float]]
    layer: dict[str, float]
    operations: int
    failures: list[str]
    digests: dict[str, str]


def run(workload_name: str, seed: int, seconds: float, trace: bool, size: Size,
        after_step=None) -> RunResult:
    """Set up, repeat the timed section for ``seconds``, check every output."""
    workload = WORKLOADS[workload_name]
    os.makedirs(TMP_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=TMP_ROOT)
    launcher = Launcher()
    operations, failures = 0, []
    samples: dict[str, list[float]] = {"setup_s": []}

    def count_commands(commands):
        nonlocal operations
        for c in commands:
            operations += 1
            if c.code != 0:
                failures.append(f"exit {c.code}: {shlex.join(c.argv[1:])}")

    def count_checks(results, where):
        nonlocal operations
        for name, problems in results:
            operations += 1
            if problems:
                failures.append(f"{where}: {name}: {'; '.join(problems[:3])}")

    try:
        prepared, setup_digests = None, []
        for index in range(SETUP_REPEATS):
            setup_dir = os.path.join(run_dir, f"setup{index}")
            inputs_dir = os.path.join(setup_dir, "inputs")
            os.makedirs(inputs_dir)
            start = time.perf_counter()
            count_commands(warm_up(launcher, setup_dir))
            prepared = workload.setup(seed, size, inputs_dir)
            samples["setup_s"].append(time.perf_counter() - start)
            setup_digests.append(checks.artifact_digests(inputs_dir))
        count_checks([("set-up deterministic", [
            f"set-up {i} differs" for i, d in enumerate(setup_digests) if d != setup_digests[0]
        ])], "setup")
        count_checks(check_setup(prepared), "setup")

        plain: list[Repetition] = []
        traced: list[Repetition] = []
        # Repeat while the next round is expected to end within ``seconds``.
        start = time.perf_counter()
        rounds: list[float] = []
        while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
            round_start = time.perf_counter()
            for is_traced in (False, True) if trace else (False,):
                rep = run_repetition(launcher, workload, seed, size, prepared, run_dir,
                                     len(plain) + len(traced), is_traced, after_step)
                (traced if is_traced else plain).append(rep)
                count_commands(rep.commands)
                count_checks(rep.checks, f"rep {len(plain) + len(traced) - 1}")
            rounds.append(time.perf_counter() - round_start)
        reps = plain + traced
        first = reps[0].digests
        count_checks([("artifacts identical across repetitions", [
            f"repetition {i} differs in "
            f"{sorted(k for k in set(r.digests) | set(first) if r.digests.get(k) != first.get(k))}"
            for i, r in enumerate(reps) if r.digests != first
        ])], "run")

        for rep in plain:
            for name, value in end_to_end(rep).items():
                samples.setdefault(name, []).append(value)
        layer: dict[str, float] = {}
        if trace:
            transcript_mb = statistics.median(
                [r.counts.get("transcript_mb", 0.0) for r in traced])
            layer = tracing.layer_metrics([s for r in traced for s in r.spans],
                                          len(traced), transcript_mb)
            for step in tracing.STEP_NAMES:
                untraced = [r.steps[step] for r in plain if step in r.steps]
                with_trace = [r.steps[step] for r in traced if step in r.steps]
                layer[f"trace_overhead.{step}"] = (
                    statistics.median(with_trace) - statistics.median(untraced)
                    if untraced and with_trace else 0.0)
        digests = dict(plain[0].digests)
        digests["(all artifacts)"] = checks.combined_digest(plain[0].digests)
        digests.update({f"setup/{name}": value for name, value in setup_digests[0].items()})
        commands = [c.argv for c in plain[0].commands]
        samples["failed_share"] = [len(failures) / max(operations, 1)]
        return RunResult(workload_name, seed, commands, samples, layer, operations,
                         failures, digests)
    finally:
        launcher.close()
        shutil.rmtree(run_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Output


def provenance() -> dict[str, str]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*args) -> str | None:
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    rev = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if rev else None
    return {
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_rev": rev or "unknown (not a git checkout)",
        "git_dirty": "unknown" if status is None else str(bool(status)).lower(),
    }


def summary(values: list[float]) -> tuple[float, int, float, float]:
    return statistics.median(values), len(values), min(values), max(values)


def print_report(result: RunResult, trace: bool) -> None:

    print(f"== mutexec benchmark: workload {result.workload}, seed {result.seed} ==")
    for key, value in provenance().items():
        print(f"{key}: {value}")
    print("command lines (each run in a fresh directory, one after another):")
    for argv in result.commands:
        print(f"  PYTHONPATH={SRC} {shlex.join(argv)}")
    print("end-to-end metrics (median over samples, untraced):")
    for name, (unit, better) in END_TO_END.items():
        if name not in result.samples:
            continue
        median, n, lo, hi = summary(result.samples[name])
        print(f"  {name:<18} {median:>12.6g} {unit:<5} n={n}  range {lo:.6g}..{hi:.6g}"
              f"  ({better} is better)")
    print("per-repetition wall_s: "
          + " ".join(f"{v:.4g}" for v in result.samples["wall_s"]))
    if trace:
        print("per-layer metrics (traced repetitions):")
        for name, unit in tracing.PER_LAYER_UNITS.items():
            print(f"  {name:<48} {result.layer[name]:>12.6g} {unit}")
    print("artifact sha256 (identical for a fixed seed and commit):")
    for name, digest in result.digests.items():
        print(f"  {digest}  {name}")
    print(f"operations: {result.operations}, failed: {len(result.failures)}")
    for failure in result.failures:
        print(f"  FAILED {failure}")


def result_line(result: RunResult, trace: bool) -> str:

    if trace:
        metrics = {name: {"value": result.layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": statistics.median(result.samples[name]),
                          "unit": END_TO_END[name][0]}
                   for name in GATED}
    return json.dumps({"correct": not result.failures, "attempted": result.operations,
                       "failed": len(result.failures), "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="repeat the timed section until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input size; 'tiny' is for the self-test")
    args = parser.parse_args(argv)
    # a terminated run still removes its directory and stops its launcher
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "mutexec", "cli.py")):
        print(f"error: no mutexec sources under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), SIZES[args.size])
    print_report(result, bool(args.trace))
    print(result_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
