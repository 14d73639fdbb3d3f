"""The small corpus, its mutate step and the mock model runs and report on
its pairs give the same bytes under every supported Python, 3.10 to 3.13,
and the parser accepts only what that Python's ``compile`` accepts, whose
keywords, grammar and compiler are the running interpreter's.  So do ``ingest`` and
``mutate`` through the bundled external executor on the corpus's programs,
with nothing written to stderr.

Interpreters are looked for at fixed places: ``~/.pyenv/versions/3.1[0-3].*``
and ``python3.10`` to ``python3.13`` in each directory on ``PATH``.  The first
one found of each minor version is checked, except the running one's; a
candidate that does not start (a pyenv shim for a version not selected) is
passed over.  Each interpreter runs the commands from the source tree,
without pytest.  The manifests of the commands that hash their inputs are
compared too, so each interpreter's built-in sha256 (``_sha256`` on 3.10 and
3.11, ``_sha2`` from 3.12 on) gives the digests written here.  Transcripts
are not compared: they hold wall-clock times.
"""

import glob
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from conftest import fixture_path
from mutexec.cli import dispatch
from mutexec.executors import ExternalExecutor
from mutexec.problems import load_jsonl
from test_datasets import SMALL_CORPUS_SHA256
from test_executors import CONTRACT_CASES, host_answer, outcome

ROOT = pathlib.Path(__file__).resolve().parent.parent
VERSIONS = ("3.10", "3.11", "3.12", "3.13")
BUILD = ["build-dsl-list", "--seed", "11", "--programs-per-combo", "120", "--per-bin", "2",
         "--out", "dsl.jsonl"]
MUTATE = ["mutate", "--seed", "5", "--executor", "builtin", "--in", "dsl.jsonl", "--out", "out"]
PAIRS = ["--orig", "out/originals.jsonl", "--mut", "out/mutants.jsonl"]
EVALUATE = [
    ["run-pred", *PAIRS, "--model", "mock:ground-truth-given", "--n", "3", "--out", "pred.jsonl"],
    ["run-choice", *PAIRS, "--model", "mock:ground-truth-original", "--out", "choice.jsonl"],
    ["report", "--pred", "pred.jsonl", "--choice", "choice.jsonl", "--out", "report.txt",
     "--csv", "metrics.csv"],
]
OUTPUTS = ("out/originals.jsonl", "out/mutants.jsonl", "pred.jsonl", "choice.jsonl",
           "report.txt", "metrics.csv", "out/mutate.manifest.json",
           "pred.jsonl.manifest.json", "choice.jsonl.manifest.json")
EXTERNAL = [
    ["ingest", "--executor", "external", "--min-chars", "1", "--in", "raw.jsonl",
     "--out", "ext.jsonl"],
    ["mutate", "--seed", "5", "--executor", "external", "--in", "ext.jsonl",
     "--out", "ext"],
]
EXTERNAL_OUTPUTS = ("ext.jsonl", "ext.jsonl.rejected.jsonl", "ext/originals.jsonl",
                    "ext/mutants.jsonl", "ext.jsonl.manifest.json", "ext/mutate.manifest.json")
_PROBE = "import platform; print(platform.python_version())"
_PARSER_CHECK = ("from reference import parsed_outside_python, random_texts; "
                 "print(parsed_outside_python(random_texts(2, 5000)))")


def other_interpreters() -> list[tuple[str, str]]:
    """``(version, path)`` for the first interpreter found of each Python
    3.10-3.13 other than the running one's, oldest first."""
    candidates = [
        (tuple(map(int, pathlib.Path(path).parents[1].name.split(".")[:2])), path)
        for path in sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/3.1[0-3].*/bin/python3")))
    ]
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        candidates += [((3, int(v[2:])), os.path.join(directory, f"python{v}")) for v in VERSIONS]
    found = {sys.version_info[:2]: None}
    for minor, path in candidates:
        if minor in found or not os.path.isfile(path) or not os.access(path, os.X_OK):
            continue
        probe = subprocess.run([path, "-c", _PROBE], capture_output=True, text=True,
                               timeout=60)
        if probe.returncode == 0:
            found[minor] = (probe.stdout.strip(), path)
    return [found[minor] for minor in sorted(found) if found[minor] is not None]


@pytest.fixture(scope="module")
def interpreters():
    found = other_interpreters()
    if not found:
        pytest.skip("no Python 3.10-3.13 other than the running one was found")
    return found


def test_parser_accepts_only_python_on_every_interpreter(interpreters):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]),
               PYTHONDONTWRITEBYTECODE="1")
    for version, path in interpreters:
        done = subprocess.run([path, "-c", _PARSER_CHECK], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (done.returncode, done.stdout) == (0, "[]\n"), (version, path, done.stderr)


def test_same_bytes_on_every_interpreter(interpreters, tmp_path, monkeypatch):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")

    works = []
    for version, path in interpreters:
        work = tmp_path / version
        work.mkdir()
        for command in (BUILD, MUTATE, *EVALUATE):
            done = subprocess.run([path, "-m", "mutexec.cli", *command], cwd=work, env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, (path, command[0], done.stderr)
        digest = hashlib.sha256((work / "dsl.jsonl").read_bytes()).hexdigest()
        assert digest == SMALL_CORPUS_SHA256, (version, path)
        works.append(work)

    # this interpreter's commands after the build, on the corpus they all built
    here = tmp_path / "here"
    here.mkdir()
    (here / "dsl.jsonl").write_bytes((works[0] / "dsl.jsonl").read_bytes())
    monkeypatch.chdir(here)
    for command in (MUTATE, *EVALUATE):
        assert dispatch(command) == 0, command[0]
    for (version, path), work in zip(interpreters, works):
        for name in OUTPUTS:
            assert (work / name).read_bytes() == (here / name).read_bytes(), (
                version, path, name)


def test_external_path_on_every_interpreter(interpreters, tmp_path, monkeypatch):
    raw = "".join(json.dumps({"id": p.id, "source": p.source, "function_name": p.function_name,
                              "input": p.input}) + "\n"
                  for p in load_jsonl(fixture_path("small_corpus.jsonl")))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    here = tmp_path / "here"
    here.mkdir()
    (here / "raw.jsonl").write_text(raw)
    monkeypatch.chdir(here)
    for command in EXTERNAL:
        assert dispatch(command) == 0, command[0]
    assert len(load_jsonl("ext/mutants.jsonl")) > 10

    for version, path in interpreters:
        work = tmp_path / version
        work.mkdir()
        (work / "raw.jsonl").write_text(raw)
        for command in EXTERNAL:
            done = subprocess.run([path, "-m", "mutexec.cli", *command], cwd=work, env=env,
                                  capture_output=True, text=True, timeout=300)
            assert (done.returncode, done.stderr) == (0, ""), (path, command[0])
        for name in EXTERNAL_OUTPUTS:
            assert (work / name).read_bytes() == (here / name).read_bytes(), (
                version, path, name)


def test_host_half_of_the_contract_cases_on_every_interpreter(interpreters, monkeypatch):
    # each interpreter's own child, started as ``<python> -m
    # mutexec.python_exec``, gives the host answers the contract cases pin,
    # the sum of 3,000 terms included: a RecursionError from the compilers
    # of 3.10-3.12, and a sum from 3.13's
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    calls = [(source, "f", args) for source, args, _ in CONTRACT_CASES.values()]
    for version, path in interpreters:
        minor = tuple(map(int, version.split(".")[:2]))
        with ExternalExecutor([path, "-m", "mutexec.python_exec"]) as child:
            answers = dict(zip(CONTRACT_CASES, map(outcome, child.run_many(calls))))
        assert answers == {name: host_answer(name, minor) for name in CONTRACT_CASES}, (
            version, path)
