"""The names and result fields that ``bench/tracing.py`` patches and reads
still exist, so ``bench/run.py --trace 1`` can wrap the package."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

SCRIPT = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
from mutexec import executors
source = "def f(a1):\\n    return a1 + 1"
executors.BuiltinExecutor().run(source, "f", (1,))
with executors.ExternalExecutor(timeout=10.0) as external:
    external.run(source, "f", (1,))
print(json.dumps(sorted(set(tracer.names))))
"""


def test_tracing_install_finds_every_patched_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "bench" / "tracing.py")],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # the tags read status, error_kind, steps and pid of the results
    assert json.loads(done.stdout) == [
        "executors.builtin.run", "executors.external.ensure", "executors.external.run",
        "minipy.interpret", "minipy.parse"]
