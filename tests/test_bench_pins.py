"""The names and result fields that ``bench/tracing.py`` patches and reads
still exist, so ``bench/run.py --trace 1`` can wrap the package."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

INSTALL = """
import importlib.util, json, os, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
"""

EXECUTORS = INSTALL + """
from mutexec import executors
source = "def f(a1):\\n    return a1 + 1"
executors.BuiltinExecutor().run(source, "f", (1,))
with executors.ExternalExecutor(timeout=10.0) as external:
    external.run(source, "f", (1,))
print(json.dumps(sorted(set(tracer.names))))
"""

# the evaluate workload's path: a mock's calls logged to a transcript, the
# replay that reads it back, its records, and their load
EVALUATE = INSTALL + """
from mutexec import harness, llm_client
from mutexec.problems import Problem
source = "def f(a1):\\n    return a1 + 1"
original, mutant = (Problem(id="p", dataset="d", source=source.replace("+", op),
                            function_name="f", input="1", output=output, loc=2,
                            executor="builtin") for op, output in (("+", "2"), ("-", "0")))
transcript = os.path.join(sys.argv[2], "transcript.jsonl")
records = os.path.join(sys.argv[2], "records.jsonl")
model = llm_client.parse_model_spec("mock:ground-truth-given", pairs=[(original, mutant)],
                                    transcript=llm_client.Transcript(transcript))
harness.run_prediction([original], [mutant], model, n=2)
replay = llm_client.parse_model_spec("mock:scripted:" + transcript)
harness.run_prediction([original], [mutant], replay, n=2, out_path=records)
assert len(harness.load_prediction_records(records)) == 4
print(json.dumps(sorted(set(tracer.names))))
"""


def traced_names(script: str, tmp_path) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench" / "tracing.py"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_tracing_install_finds_every_patched_name(tmp_path):
    # the tags read status, error_kind, steps and pid of the results
    assert traced_names(EXECUTORS, tmp_path) == [
        "executors.builtin.run", "executors.external.ensure", "executors.external.run",
        "minipy.interpret", "minipy.parse"]


def test_tracing_finds_the_evaluate_hooks(tmp_path):
    # the tags read the number of responses, records and unparsed records
    assert traced_names(EVALUATE, tmp_path) == [
        "harness.extract", "harness.load_records", "harness.prompt", "harness.run",
        "llm_client.complete", "llm_client.scripted_load"]
