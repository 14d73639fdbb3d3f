"""Self-test of the benchmark at tiny size.

Run from the repository root with ``python3 -m pytest bench/selftest.py``
(the file name keeps it out of the package's own test run).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402

# seed 1 fills every lines-of-code bin at the tiny pipeline size
SEED = 1
APPLIES = {
    "pipeline": ("build_s", "mutate_s", "pred_s", "choice_s", "report_s",
                 "programs_per_s", "candidates_per_s", "records_per_s"),
    "evaluate": ("pred_s", "replay_s", "choice_s", "report_s", "records_per_s"),
    "external": ("ingest_s", "mutate_s", "candidates_per_s"),
}
ALWAYS = ("setup_s", "wall_s", "wall_ref", "peak_rss_mb", "failed_share")


def bench(*args: str, cwd: str = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args, "--seed", str(SEED),
         "--seconds", "0", "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_end_to_end_metric_is_printed_with_unit(workload):
    done = bench("--workload", workload, "--trace", "0")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: run.END_TO_END[name][0] for name in run.GATED}
    printed = {parts[0]: parts for parts in map(str.split, lines) if len(parts) > 3}
    for name in ALWAYS + APPLIES[workload]:
        assert printed[name][2] == run.END_TO_END[name][0], name
        assert printed[name][3].startswith("n="), name


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    done = bench("--workload", workload, "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == PER_LAYER_UNITS
    if workload == "pipeline":
        shares = [v["value"] for k, v in result["metrics"].items()
                  if k.startswith("dsl.reject_share.") or k == "dsl.accept_share"]
        assert sum(shares) == pytest.approx(1.0)


def _flip_ground_truth(step, work):
    if step == "build_s":
        path = os.path.join(work, "dsl.jsonl")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        first = json.loads(lines[0])
        first["output"] = "[" + first["output"] + "]"
        lines[0] = json.dumps(first) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)


def _tear_last_record(step, work):
    if step == "pred_s":
        path = os.path.join(work, "pred.jsonl")
        with open(path, "rb+") as fh:
            fh.truncate(os.path.getsize(path) - 20)


@pytest.mark.parametrize("workload, corrupt", [
    ("pipeline", _flip_ground_truth),
    ("evaluate", _tear_last_record),
])
def test_corrupted_artifact_raises_failed_share(workload, corrupt):
    result = run.run(workload, SEED, 0, False, run.SIZES["tiny"], after_step=corrupt)
    assert result.samples["failed_share"][0] > 0
    assert result.failures


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = bench("--workload", "pipeline", "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()
