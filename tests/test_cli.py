import json
import os
import random
import shlex
import subprocess
import sys
import time

import pytest

import mutexec
from mutexec import cli, executors, grammar, harness, llm_client
from mutexec.cli import build_parser, dispatch, load_config_file
from mutexec.grammar import AttemptsExhausted
from mutexec.problems import atomic_writer, encode_json, load_jsonl, pair_by_id, split_json
from mutexec.problems import read_jsonl as read_records


def read_jsonl(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """A small dataset directory built once through the CLI itself."""
    root = tmp_path_factory.mktemp("cli")
    problems = root / "problems.jsonl"
    code = dispatch([
        "build-dsl-list", "--seed", "3", "--programs-per-combo", "60",
        "--per-bin", "2", "--out", str(problems),
    ])
    assert code == 0
    pairs_dir = root / "pairs"
    code = dispatch([
        "mutate", "--in", str(problems), "--out", str(pairs_dir), "--seed", "3",
    ])
    assert code == 0
    return root


class TestSampleAndTranspile:
    def test_sample_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert dispatch([
                "sample", "--arity", "1", "--depth", "4", "-n", "5",
                "--seed", "4", "--out", str(out),
            ]) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = read_jsonl(a)
        assert len(rows) == 5
        assert set(rows[0]) == {"dsl_text", "type", "depth", "inputs", "outputs"}
        assert len(rows[0]["inputs"]) == 3

    def test_transpile_from_sample(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        dispatch(["sample", "-n", "3", "--seed", "1", "--out", str(corpus)])
        out = tmp_path / "programs.jsonl"
        assert dispatch(["transpile", "--in", str(corpus), "--out", str(out)]) == 0
        rows = read_jsonl(out)
        assert all(row["source"].startswith("def f(") for row in rows)

    def test_transpile_plain_sexpr_lines(self, tmp_path):
        src = tmp_path / "terms.txt"
        src.write_text("(tail a1)\n(map (length) (append a1 empty))\n")
        out = tmp_path / "programs.jsonl"
        assert dispatch(["transpile", "--in", str(src), "--out", str(out)]) == 0
        assert len(read_jsonl(out)) == 2

    @pytest.mark.parametrize("text,message", [
        ("(tail a1)\n(map 1 a1)\n", "2: lit: expected _1 -> _2, found int"),
        ("(length 3)\n", "1: lit: expected L(_1), found int"),
        ("(length)\n", "1: a function is not a program"),
        ('{"x": 1}\n', "1: expected a string field 'dsl_text'"),
        ("(map (if (< (length a1) 2) (length) (length)) (append a1 empty))\n",
         '1: "if" with function-typed arguments: only map takes a function'),
        ("(map (length) (append a0 empty))\n", "1: unknown atom 'a0'"),
    ], ids=["literal_as_map_function", "length_of_int", "function", "missing_dsl_text",
            "function_valued_if_as_map_function", "parameter_a0"])
    def test_transpile_rejects_a_bad_line(self, tmp_path, capsys, monkeypatch, text,
                                          message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "terms.txt").write_text(text)
        assert dispatch(["transpile", "--in", "terms.txt", "--out", "t.jsonl"]) == 1
        assert capsys.readouterr().err == f"error: terms.txt:{message}\n"
        assert os.listdir(tmp_path) == ["terms.txt"]  # no output, no manifest


class TestBuildDeterminism:
    def test_build_dsl_list_twice_identical_bytes(self, tmp_path):
        outs = []
        for name in ("one.jsonl", "two.jsonl"):
            out = tmp_path / name
            assert dispatch([
                "build-dsl-list", "--seed", "1", "--programs-per-combo", "60",
                "--per-bin", "2", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestBuildDslListOptions:
    @pytest.mark.parametrize("option", [["--arity", "2"], ["--depth", "4"]])
    def test_arity_and_depth_are_sample_only(self, tmp_path, option):
        # build-dsl-list samples every arity and depth of the dataset
        out = tmp_path / "d.jsonl"
        with pytest.raises(SystemExit) as err:
            dispatch(["build-dsl-list", "--programs-per-combo", "60", "--per-bin", "1",
                      "--out", str(out)] + option)
        assert err.value.code == 2
        assert not out.exists()

    def test_input_options_reach_the_sampler(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert dispatch([
            "build-dsl-list", "--seed", "1", "--programs-per-combo", "60",
            "--per-bin", "1", "--input-count", "2", "--list-len-min", "1",
            "--list-len-max", "2", "--element-min", "6", "--element-max", "9",
            "--out", str(out),
        ]) == 0
        problems = load_jsonl(str(out))
        per_program = {}
        for problem in problems:
            per_program[problem.program_id] = per_program.get(problem.program_id, 0) + 1
            for arg in problem.args():
                assert 1 <= len(arg) <= 2
                assert all(6 <= v <= 9 for v in arg)
        assert len(per_program) == 2 * 5  # one program per LOC bin and arity
        assert set(per_program.values()) == {2}


class TestMutatePipeline:
    def test_paired_outputs_equal_counts(self, tiny_dataset):
        originals = load_jsonl(str(tiny_dataset / "pairs" / "originals.jsonl"))
        mutants = load_jsonl(str(tiny_dataset / "pairs" / "mutants.jsonl"))
        assert len(originals) == len(mutants) > 0
        assert [p.id for p in originals] == [p.id for p in mutants]

    def test_manifest_written(self, tiny_dataset):
        manifest_path = str(tiny_dataset / "problems.jsonl.manifest.json")
        manifest = json.load(open(manifest_path))
        assert manifest["command"] == "build-dsl-list"
        assert manifest["seed"] == 3
        # the version that maps a seed to these bytes
        assert manifest["version"] == mutexec.__version__
        assert manifest["outputs"] == [str(tiny_dataset / "problems.jsonl")]
        mutate_manifest = json.load(open(tiny_dataset / "pairs" / "mutate.manifest.json"))
        assert str(tiny_dataset / "problems.jsonl") in mutate_manifest["inputs"]

    def test_manifest_inputs_hash_as_hashlib(self, tiny_dataset):
        import hashlib

        manifest = json.load(open(tiny_dataset / "pairs" / "mutate.manifest.json"))
        assert manifest["inputs"] == {
            path: hashlib.sha256(open(path, "rb").read()).hexdigest()
            for path in [str(tiny_dataset / "problems.jsonl")]}


def test_version_has_one_source(capsys):
    # pyproject.toml takes the package's version from mutexec.__version__
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    assert 'dynamic = ["version"]' in text
    assert 'version = {attr = "mutexec.__version__"}' in text
    assert '\nversion = "' not in text
    with pytest.raises(SystemExit):
        dispatch(["--version"])
    assert capsys.readouterr().out == mutexec.__version__ + "\n"


class TestRunAndReport:
    def test_mock_run_and_report(self, tiny_dataset, tmp_path, capsys):
        orig = str(tiny_dataset / "pairs" / "originals.jsonl")
        mut = str(tiny_dataset / "pairs" / "mutants.jsonl")
        records = str(tmp_path / "pred.jsonl")
        assert dispatch([
            "run-pred", "--orig", orig, "--mut", mut,
            "--model", "mock:ground-truth-given", "--out", records,
        ]) == 0
        choice_records = str(tmp_path / "choice.jsonl")
        assert dispatch([
            "run-choice", "--orig", orig, "--mut", mut,
            "--model", "mock:always-a", "--out", choice_records,
        ]) == 0
        report = str(tmp_path / "report.txt")
        csv_path = str(tmp_path / "metrics.csv")
        loc_csv = str(tmp_path / "loc.csv")
        assert dispatch([
            "report", "--pred", records, "--choice", choice_records,
            "--label", "mock-run", "--out", report, "--csv", csv_path,
            "--loc-csv", loc_csv,
        ]) == 0
        text = open(report).read()
        assert "OC" in text and "100.0" in text
        assert "Pref" in text and "50.0" in text
        assert os.path.exists(loc_csv)
        manifest = json.load(open(records + ".manifest.json"))
        assert "model_config_sha" in manifest
        assert orig in manifest["inputs"]

    def test_transcript_logs_every_call(self, tiny_dataset, tmp_path):
        orig = str(tiny_dataset / "pairs" / "originals.jsonl")
        mut = str(tiny_dataset / "pairs" / "mutants.jsonl")
        records = str(tmp_path / "pred.jsonl")
        transcript = str(tmp_path / "transcript.jsonl")
        dispatch([
            "run-pred", "--orig", orig, "--mut", mut, "--n", "2",
            "--model", "mock:ground-truth-given", "--out", records,
            "--transcript", transcript,
        ])
        logged = read_jsonl(transcript)
        originals = load_jsonl(orig)
        assert len(logged) == len(originals) * 2 * 2

    @pytest.mark.parametrize("command", ["run-pred", "run-choice"])
    def test_out_in_missing_directory(self, tiny_dataset, tmp_path, monkeypatch, command):
        # the records' directory is made before the first model call, so no
        # logged answer goes without its record
        monkeypatch.chdir(tmp_path)
        pairs = tiny_dataset / "pairs"
        assert dispatch([command, "--orig", str(pairs / "originals.jsonl"),
                         "--mut", str(pairs / "mutants.jsonl"),
                         "--model", "mock:ground-truth-given",
                         "--out", "nodir/x.jsonl", "--transcript", "nodir2/t.jsonl"]) == 0
        records = read_jsonl(tmp_path / "nodir" / "x.jsonl")
        assert len(records) == len(read_jsonl(tmp_path / "nodir2" / "t.jsonl")) > 0

    def test_report_requires_input(self, capsys):
        assert dispatch(["report", "--label", "x"]) == 2

    @pytest.mark.parametrize("command, model", [
        (command, model) for model in ("mock:ground-truth-given", "replay")
        for command in ("run-pred", "run-choice")],
        ids=["run-pred", "run-choice", "run-pred-replay", "run-choice-replay"])
    def test_resume_after_torn_tail(self, tiny_dataset, tmp_path, command, model):
        orig = str(tiny_dataset / "pairs" / "originals.jsonl")
        mut = str(tiny_dataset / "pairs" / "mutants.jsonl")
        if command == "run-pred":
            extra, load = ["--n", "2"], harness.load_prediction_records
        else:
            extra, load = [], harness.load_choice_records
        if model == "replay":
            # a transcript whose every sample has its own response, so a
            # resumed replay that answered from another sample would show
            pairs = pair_by_id(load_jsonl(orig), load_jsonl(mut))
            if command == "run-pred":
                prompts = [harness.build_prediction_prompt(p) for pair in pairs for p in pair]
            else:
                prompts = [harness.build_choice_prompt(*pair, order) for pair in pairs
                           for order in ("original_first", "mutated_first")]
            transcript = tmp_path / "transcript.jsonl"
            writer = llm_client.mock_model(
                "scripted", transcript=llm_client.Transcript(str(transcript)),
                script={p: [f"answer {i} (sample {k})" for k in range(2)]
                        for i, p in enumerate(prompts)})
            for prompt in prompts:
                writer.complete(prompt, 2)
            model = f"mock:scripted:{transcript}"
        argv = [command, "--orig", orig, "--mut", mut, *extra, "--model", model]
        full = tmp_path / "full.jsonl"
        assert dispatch(argv + ["--out", str(full)]) == 0
        whole = full.read_bytes()
        rng = random.Random(command)
        for _ in range(4):
            cut = tmp_path / "cut.jsonl"
            cut.write_bytes(whole[:rng.randrange(1, len(whole))])
            assert dispatch(argv + ["--out", str(cut), "--resume"]) == 0
            assert load(str(cut)) == load(str(full))
            assert cut.read_bytes() == whole


class TestLivePath:
    """``--model http:...`` end to end, against the local stub endpoint."""

    def run_live(self, tiny_dataset, tmp_path, stub, command, parallelism="1"):
        """Records and bytes of one run; it exits 0 and logs every request."""
        orig = str(tiny_dataset / "pairs" / "originals.jsonl")
        mut = str(tiny_dataset / "pairs" / "mutants.jsonl")
        out = tmp_path / f"{command}-{parallelism}.jsonl"
        transcript = tmp_path / f"{command}-{parallelism}.transcript.jsonl"
        extra = ["--n", "2"] if command == "run-pred" else []
        before = len(stub.requests)
        assert dispatch([
            command, "--orig", orig, "--mut", mut, *extra,
            "--model", "http:stub", "--endpoint", stub.url,
            "--parallelism", parallelism, "--out", str(out),
            "--transcript", str(transcript),
        ]) == 0
        assert len(read_jsonl(transcript)) == len(stub.requests) - before
        return read_jsonl(out), out.read_bytes()

    @pytest.mark.parametrize("command", ["run-pred", "run-choice"])
    def test_http_model_answers(self, tiny_dataset, tmp_path, stub, command):
        records, serial = self.run_live(tiny_dataset, tmp_path, stub, command)
        assert records and all(r["error"] is None for r in records)
        _, parallel = self.run_live(tiny_dataset, tmp_path, stub, command, "4")
        assert parallel == serial

    @pytest.mark.parametrize("command", ["run-pred", "run-choice"])
    def test_refused_requests_become_error_records(self, tiny_dataset, tmp_path,
                                                   stub, command):
        stub.script((400, "", 0))
        records, _ = self.run_live(tiny_dataset, tmp_path, stub, command)
        assert records and all(r["error"] == "HTTP 400" for r in records)


def test_cli_import_loads_no_http_stack():
    """The HTTP client is imported when a request is sent, not with the CLI."""
    import mutexec

    probe = ("import sys, mutexec.cli; print(sorted(m for m in "
             "('urllib.request', 'http.client', 'ssl') if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(mutexec.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


SAMPLING = ["mutexec.dsl", "mutexec.grammar", "mutexec.transpile", "mutexec.datasets"]
EVALUATION = ["mutexec.harness", "mutexec.llm_client", "mutexec.metrics"]
HTTP = ["urllib.request", "http.client", "ssl"]
# manifests hash with the interpreter's built-in sha256, not OpenSSL's
OPENSSL = ["hashlib", "_hashlib"]
# the loaded modules, and the dataclasses the loaded mutexec modules define
IMPORT_PROBE = """\
import dataclasses, json, sys
from mutexec.cli import dispatch
code = dispatch(json.loads(sys.argv[1]))
classes = [f"{name}.{obj.__qualname__}"
           for name, module in list(sys.modules.items()) if name.startswith("mutexec")
           for obj in vars(module).values()
           if isinstance(obj, type) and obj.__module__ == name and dataclasses.is_dataclass(obj)]
print(json.dumps([code, sorted(sys.modules), sorted(classes)]))
"""
# The one class that stays a dataclass, because the benchmark uses it as
# such: bench/run.py calls dataclasses.replace on it.  Every other class is a
# plain class with __slots__, so that no command spends its start generating
# methods.
DATACLASSES = {"mutexec.problems.Problem"}


@pytest.fixture(scope="module")
def tiny_records(tiny_dataset):
    """Prediction and choice records for the tiny dataset, for ``report``, and
    its problems ingested as external ones, which ``mutate`` runs on the
    external executor."""
    assert dispatch(["ingest", "--executor", "external", "--min-chars", "1",
                     "--in", str(tiny_dataset / "problems.jsonl"),
                     "--out", str(tiny_dataset / "ingested.jsonl")]) == 0
    pairs = tiny_dataset / "pairs"
    for command, extra in (("run-pred", ["--n", "1"]), ("run-choice", [])):
        assert dispatch([
            command, "--orig", str(pairs / "originals.jsonl"),
            "--mut", str(pairs / "mutants.jsonl"), *extra,
            "--model", "mock:ground-truth-given",
            "--out", str(tiny_dataset / f"{command}.jsonl"),
        ]) == 0
    return tiny_dataset


RUN = ["--orig", "{data}/pairs/originals.jsonl", "--mut", "{data}/pairs/mutants.jsonl",
       "--parallelism", "1", "--out", "{tmp}/records.jsonl"]
# argv ("{data}": the tiny dataset, "{tmp}": the test's directory), and the
# modules the command must not load
IMPORT_CASES = [
    (["sample", "-n", "1", "--out", "{tmp}/s.jsonl"],
     EVALUATION + OPENSSL + ["mutexec.executors", "concurrent.futures"]),
    (["transpile", "--in", "{tmp}/terms.txt", "--out", "{tmp}/t.jsonl"],
     EVALUATION + OPENSSL + ["mutexec.executors", "concurrent.futures"]),
    (["build-dsl-list", "--seed", "3", "--programs-per-combo", "60",
      "--per-bin", "1", "--out", "{tmp}/d.jsonl"],
     EVALUATION + OPENSSL + ["mutexec.executors", "concurrent.futures", "multiprocessing"]),
    (["ingest", "--executor", "external", "--min-chars", "1", "--in", "{data}/problems.jsonl",
      "--out", "{tmp}/i.jsonl"],
     EVALUATION + OPENSSL),
    (["mutate", "--executor", "builtin", "--in", "{data}/problems.jsonl",
      "--out", "{tmp}/pairs"],
     SAMPLING + EVALUATION + OPENSSL),
    (["mutate", "--executor", "external", "--in", "{data}/ingested.jsonl",
      "--out", "{tmp}/pairs"],
     SAMPLING + EVALUATION + OPENSSL),
    (["run-pred", "--model", "mock:ground-truth-given", "--n", "1"] + RUN,
     SAMPLING + HTTP + OPENSSL + ["mutexec.minipy", "mutexec.executors",
                                 "concurrent.futures"]),
    (["run-choice", "--model", "mock:always-a"] + RUN,
     SAMPLING + HTTP + OPENSSL + ["mutexec.minipy", "mutexec.executors",
                                 "concurrent.futures"]),
    (["report", "--pred", "{data}/run-pred.jsonl", "--choice", "{data}/run-choice.jsonl",
      "--out", "{tmp}/report.txt"],
     SAMPLING + HTTP + OPENSSL + ["mutexec.minipy", "mutexec.executors",
                                 "concurrent.futures"]),
]
# a case's id is its command, and ``-external`` where it runs that executor
IMPORT_IDS = [argv[0] + "-external" * ("external" in argv) for argv, _ in IMPORT_CASES]


class TestImportSets:
    """Each command, run in a fresh interpreter, loads only its own layers."""

    @pytest.mark.parametrize("argv, absent", IMPORT_CASES, ids=IMPORT_IDS)
    def test_command_loads_only_its_layers(self, tiny_records, tmp_path, argv, absent):
        import mutexec

        (tmp_path / "terms.txt").write_text("(tail a1)\n")
        argv = [a.format(data=tiny_records, tmp=tmp_path) for a in argv]
        src = os.path.dirname(os.path.dirname(mutexec.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(argv)],
                                env=env, capture_output=True, text=True, check=True)
        code, modules, classes = json.loads(result.stdout.splitlines()[-1])
        assert code == 0
        assert sorted(set(absent) & set(modules)) == []
        loaded = {name for name in DATACLASSES if name.rpartition(".")[0] in modules}
        assert set(classes) == loaded


# vars(parse_args(argv)) without ``func``, as the parser gave them when every
# subcommand's options were built up front, less ``seed`` where no random
# number is drawn and report's ``loc_dat``.
MINIMAL_PARSES = [
    (["sample", "--out", "o"],
     {"command": "sample", "config": None, "seed": 0, "arity": 1, "depth": 5,
      "input_count": 3, "list_len_min": 3, "list_len_max": 5, "element_min": 0,
      "element_max": 5, "max_attempts": 10000, "weight": None, "count": 10, "out": "o"}),
    (["transpile", "--in", "i", "--out", "o"],
     {"command": "transpile", "config": None, "in": "i",
      "function_name": "f", "out": "o"}),
    (["build-dsl-list", "--out", "o"],
     {"command": "build-dsl-list", "config": None, "seed": 0, "input_count": 3,
      "list_len_min": 3, "list_len_max": 5, "element_min": 0, "element_max": 5,
      "max_attempts": 10000, "weight": None, "programs_per_combo": 1000,
      "per_bin": 10, "out": "o"}),
    (["build-llm-list", "--model", "m", "--out", "o"],
     {"command": "build-llm-list", "config": None, "model": "m",
      "model_profile": "traditional",
      "endpoint": "https://api.openai.com/v1/chat/completions", "parallelism": 4,
      "max_tokens": None, "transcript": None, "mode": None, "executor": "external",
      "executor_cmd": None, "executor_timeout": 10.0, "max_regenerations": 5,
      "out": "o"}),
    (["ingest", "--in", "i", "--out", "o"],
     {"command": "ingest", "config": None, "executor": "external",
      "executor_cmd": None, "executor_timeout": 10.0, "in": "i", "min_chars": 100,
      "max_chars": 800, "max_steps": 1000, "out": "o"}),
    (["mutate", "--in", "i", "--out", "o"],
     {"command": "mutate", "config": None, "seed": 0, "executor": "external",
      "executor_cmd": None, "executor_timeout": 10.0, "in": "i", "out": "o"}),
    (["run-pred", "--model", "m", "--orig", "a", "--mut", "b", "--out", "o"],
     {"command": "run-pred", "config": None, "model": "m",
      "model_profile": "traditional",
      "endpoint": "https://api.openai.com/v1/chat/completions", "parallelism": 4,
      "max_tokens": None, "transcript": None, "mode": None, "orig": "a", "mut": "b",
      "n": 5, "resume": False, "out": "o"}),
    (["run-choice", "--model", "m", "--orig", "a", "--mut", "b", "--out", "o"],
     {"command": "run-choice", "config": None, "model": "m",
      "model_profile": "traditional",
      "endpoint": "https://api.openai.com/v1/chat/completions", "parallelism": 4,
      "max_tokens": None, "transcript": None, "mode": None, "orig": "a", "mut": "b",
      "resume": False, "out": "o"}),
    (["report"],
     {"command": "report", "config": None, "pred": None, "choice": None,
      "label": "run", "out": None, "csv": None, "loc_csv": None}),
]

UNSEEDED = [argv for argv, parsed in MINIMAL_PARSES if "seed" not in parsed]


class TestParser:
    @pytest.mark.parametrize("argv, expected", MINIMAL_PARSES,
                             ids=[argv[0] for argv, _ in MINIMAL_PARSES])
    def test_minimal_parse_is_unchanged(self, argv, expected):
        args = vars(build_parser(argv[0]).parse_args(argv))
        assert args.pop("func") is cli.COMMANDS[argv[0]][2]
        assert args == expected
        assert list(args) == list(expected)  # option order, as --help lists them

    def test_every_command_is_pinned(self):
        assert [argv[0] for argv, _ in MINIMAL_PARSES] == list(cli.COMMANDS)

    @pytest.mark.parametrize("argv", UNSEEDED, ids=[argv[0] for argv in UNSEEDED])
    def test_seed_is_a_usage_error_where_no_number_is_drawn(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as err:
            dispatch(argv + ["--seed", "1"])
        assert err.value.code == 2
        config = tmp_path / "run.conf"
        config.write_text("seed = 1\n")
        assert dispatch(argv + ["--config", str(config)]) == 2
        assert f"mutexec {argv[0]} has no option 'seed'" in capsys.readouterr().err

    def test_defaults_come_from_their_owners(self):
        def action(command, dest):
            sub = next(a for a in build_parser(command)._actions if a.dest == "command")
            return next(a for a in sub.choices[command]._actions if a.dest == dest)

        for command in ("build-llm-list", "ingest", "mutate"):
            assert action(command, "executor_timeout").default == executors.DEFAULT_TIMEOUT
        for command in ("build-llm-list", "run-pred", "run-choice"):
            assert action(command, "endpoint").default == llm_client.DEFAULT_ENDPOINT
            assert action(command, "mode").choices is harness.MODES

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as err:
            dispatch(["--help"])
        assert err.value.code == 0
        listing = capsys.readouterr().out
        for name, (help_text, _, _) in cli.COMMANDS.items():
            assert name in listing and help_text in listing
        assert len(cli.COMMANDS) == 9

    def test_subcommand_help_lists_its_options(self, capsys):
        with pytest.raises(SystemExit):
            dispatch(["mutate", "--help"])
        assert "--executor-timeout" in capsys.readouterr().out


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "# sampling options\n"
            "count = 4\n"
            "seed = 8\n"
            "out = %s\n" % (tmp_path / "from_config.jsonl")
        )
        assert dispatch(["sample", "--config", str(config)]) == 0
        assert len(read_jsonl(tmp_path / "from_config.jsonl")) == 4
        override_out = tmp_path / "override.jsonl"
        assert dispatch([
            "sample", "--config", str(config), "-n", "2", "--out", str(override_out),
        ]) == 0
        assert len(read_jsonl(override_out)) == 2

    @pytest.mark.parametrize("command, key", [("sample", "nosuch"),
                                              ("build-dsl-list", "arity")])
    def test_unknown_key_is_a_usage_error(self, tmp_path, capsys, command, key):
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = 2\n")
        out = tmp_path / "out.jsonl"
        assert dispatch([command, "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"mutexec {command} has no option {key!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, line", [("build-dsl-list", "per_bin = 0"),
                                               ("sample", "depth = deep"),
                                               ("run-pred", "resume = maybe")])
    def test_bad_value_names_its_key(self, tmp_path, capsys, command, line):
        config = tmp_path / "run.conf"
        config.write_text(line + "\n")
        out = tmp_path / "out.jsonl"
        assert dispatch([command, "--config", str(config), "--out", str(out)]) == 2
        assert f"{config}: {line.split()[0]}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("word, value", [("1", True), ("TRUE", True), ("Yes", True),
                                             ("0", False), ("False", False), ("no", False)])
    def test_boolean_values(self, tmp_path, word, value):
        config = tmp_path / "run.conf"
        config.write_text(f"resume = {word}\n")
        argv = ["run-pred", "--config", str(config), "--model", "mock:x",
                "--orig", "o.jsonl", "--mut", "m.jsonl", "--out", "p.jsonl"]
        parser = cli.build_parser("run-pred")
        sub = next(a for a in parser._actions if a.dest == "command")
        cli._apply_config_defaults(sub.choices["run-pred"], argv)
        assert parser.parse_args(argv).resume is value

    def test_load_config_file_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.conf"
        bad.write_text("this is not a key value line\n")
        with pytest.raises(ValueError):
            load_config_file(str(bad))


class TestExitCodes:
    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            dispatch(["run-pred"])  # missing required flags
        assert err.value.code == 2

    @pytest.mark.parametrize("weight", ["if", "if=heavy", "if=nan", "if=-1", "nosuch=2"])
    def test_bad_weight_exits_2(self, tmp_path, weight):
        with pytest.raises(SystemExit) as err:
            dispatch(["sample", "-n", "1", "--weight", weight,
                      "--out", str(tmp_path / "s.jsonl")])
        assert err.value.code == 2
        assert not (tmp_path / "s.jsonl").exists()

    @pytest.mark.parametrize("command", ["sample", "build-dsl-list"])
    @pytest.mark.parametrize("options, named", [
        (["--list-len-min", "5", "--list-len-max", "3"], "--list-len-min"),
        (["--element-min", "4", "--element-max", "1"], "--element-min"),
        (["--list-len-min", "-2", "--list-len-max", "0"], "--list-len-min"),
        (["--input-count", "0"], "--input-count"),
    ], ids=["lengths", "elements", "negative_length", "no_inputs"])
    def test_bad_sampler_option_exits_2(self, tmp_path, capsys, command, options, named):
        out = tmp_path / "s.jsonl"
        try:
            code = dispatch([command, "--out", str(out)] + options)
        except SystemExit as exc:  # rejected by the option's own type
            code = exc.code
        assert code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "mutate"])
    @pytest.mark.parametrize("timeout", ["inf", "0", "-1", "nan"])
    def test_bad_executor_timeout_exits_2(self, tmp_path, capsys, command, timeout):
        with pytest.raises(SystemExit) as err:
            dispatch([command, "--in", str(tmp_path / "in.jsonl"),
                      "--out", str(tmp_path / "out"), "--executor-timeout", timeout])
        assert err.value.code == 2
        assert "--executor-timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "mutate"])
    @pytest.mark.parametrize("executor_cmd", ["", "  "], ids=["empty", "spaces"])
    def test_blank_executor_command_exits_2(self, tmp_path, capsys, monkeypatch, command,
                                            executor_cmd):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            dispatch([command, "--in", "in.jsonl", "--out", "out",
                      "--executor-cmd", executor_cmd])
        assert err.value.code == 2
        assert "argument --executor-cmd: expected a command" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, named", [
        (["sample", "--depth", "1"], "--depth"),
        (["sample", "--count", "0"], "--count"),
        (["sample", "--max-attempts", "0"], "--max-attempts"),
        (["build-dsl-list", "--per-bin", "0"], "--per-bin"),
        (["build-dsl-list", "--programs-per-combo", "0"], "--programs-per-combo"),
        (["build-llm-list", "--model", "mock:always-a", "--max-regenerations", "-1"],
         "--max-regenerations"),
        (["run-pred", "--orig", "o", "--mut", "m", "--model", "mock:always-a", "--n", "0"],
         "--n"),
        (["run-choice", "--orig", "o", "--mut", "m", "--model", "mock:always-a",
          "--parallelism", "0"], "--parallelism"),
        (["run-choice", "--orig", "o", "--mut", "m", "--model", "mock:always-a",
          "--max-tokens", "-1"], "--max-tokens"),
        (["ingest", "--in", "i", "--min-chars", "-1"], "--min-chars"),
        (["ingest", "--in", "i", "--max-chars", "-1"], "--max-chars"),
        (["ingest", "--in", "i", "--max-steps", "-1"], "--max-steps"),
        (["ingest", "--in", "i", "--min-chars", "9", "--max-chars", "8"], "--min-chars"),
    ], ids=["depth", "count", "max_attempts", "per_bin", "programs_per_combo",
            "max_regenerations", "n", "parallelism", "max_tokens", "min_chars",
            "max_chars", "max_steps", "crossed_chars"])
    def test_integer_option_below_its_bound_exits_2(self, tmp_path, capsys, monkeypatch,
                                                    argv, named):
        monkeypatch.chdir(tmp_path)
        try:
            code = dispatch(argv + ["--out", "out.jsonl"])
        except SystemExit as exc:  # rejected by the option's own type
            code = exc.code
        assert code == 2
        assert named in capsys.readouterr().err
        assert os.listdir(tmp_path) == []  # no output, no manifest

    def test_weight_option_and_config_key(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("weight = map=0\n")
        for argv in (["--weight", "map=0"], ["--config", str(config)]):
            out = tmp_path / "s.jsonl"
            assert dispatch(["sample", "-n", "5", "--seed", "2", "--out", str(out)]
                            + argv) == 0
            assert not any("map" in row["dsl_text"] for row in read_jsonl(out))
            manifest = json.load(open(str(out) + ".manifest.json"))
            assert manifest["options"]["weight"] == [["map", 0.0]]

    def test_template_drift_exits_nonzero(self, tiny_dataset, tmp_path, monkeypatch):
        from mutexec import harness

        monkeypatch.setattr(
            harness, "PREDICTION_ZERO_SHOT", harness.PREDICTION_ZERO_SHOT + "!"
        )
        code = dispatch([
            "run-pred",
            "--orig", str(tiny_dataset / "pairs" / "originals.jsonl"),
            "--mut", str(tiny_dataset / "pairs" / "mutants.jsonl"),
            "--model", "mock:always-a", "--out", str(tmp_path / "r.jsonl"),
        ])
        assert code == 1

    def test_pipeline_error_exits_1(self, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        assert dispatch([
            "run-pred", "--orig", missing, "--mut", missing,
            "--model", "mock:always-a", "--out", str(tmp_path / "r.jsonl"),
        ]) == 1


class TestPipelineFailures:
    """Sampling and build failures, and input lines of the wrong shape, end
    in one ``error:`` line and exit 1."""

    def test_underpopulated_bin(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert dispatch(["build-dsl-list", "--programs-per-combo", "27",
                         "--per-bin", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: arity 2: LOC bin (4, 8) has 0 programs, need 1\n")
        assert not out.exists()

    def test_attempts_exhausted(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        assert dispatch(["sample", "--max-attempts", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: no valid program in 1 attempts\n"
        assert os.listdir(tmp_path) == []

    def test_no_program_uses_every_parameter(self, tmp_path, capsys):
        # without extend, append, if and map no term holds both lists
        out = tmp_path / "s.jsonl"
        assert dispatch(["sample", "--arity", "2", "--weight", "extend=0",
                         "--weight", "append=0", "--weight", "if=0", "--weight", "map=0",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: no derivation uses exactly the parameters of mask 0b11\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command,text,message", [
        (["mutate", "--out", "pairs"], '{"foo": 1}\n',
         "1: Problem.__init__() got an unexpected keyword argument 'foo'"),
        (["mutate", "--out", "pairs"], "[1, 2]\n", "1: expected a JSON object, got list"),
        (["ingest", "--out", "ext.jsonl"], "[1]\n", "1: expected a JSON object, got list"),
        (["ingest", "--out", "ext.jsonl"], '{"foo": 1}\n', "1: missing field 'source'"),
        (["ingest", "--out", "ext.jsonl"],
         '{"source": "def f(a):\\n    return a\\n", "function_name": "f", "input": "1"}\n'
         '{"source": 5, "function_name": "f", "input": "1"}\n',
         "2: field 'source' must be a string, got int"),
    ], ids=["mutate_unknown_key", "mutate_list", "ingest_list", "ingest_missing_field",
            "ingest_mistyped_field"])
    def test_wrong_shape_input_line(self, tmp_path, capsys, monkeypatch, command,
                                    text, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.jsonl").write_text(text)
        assert dispatch(command + ["--in", "in.jsonl"]) == 1
        assert capsys.readouterr().err == f"error: in.jsonl:{message}\n"
        assert os.listdir(tmp_path) == ["in.jsonl"]

    @pytest.mark.parametrize("flag,text,message", [
        ("--pred", '\n{"nosuch": 1}\n',
         "2: PredictionRecord.__init__() got an unexpected keyword argument 'nosuch'"),
        # a last line without its newline that parses is no torn tail
        ("--choice", "[1]", "1: expected a JSON object, got list"),
    ], ids=["pred_unknown_key", "choice_unterminated_list"])
    def test_wrong_shape_record_line(self, tmp_path, capsys, monkeypatch, flag, text,
                                     message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "records.jsonl").write_text(text)
        assert dispatch(["report", flag, "records.jsonl", "--out", "r.txt"]) == 1
        assert capsys.readouterr() == ("", f"error: records.jsonl:{message}\n")
        assert os.listdir(tmp_path) == ["records.jsonl"]

    def test_repeated_problem_id(self, tmp_path, capsys, monkeypatch):
        # with two problems under one id, an original could be judged
        # against the other one's mutant
        monkeypatch.chdir(tmp_path)
        problem = {"dataset": "external", "source": "def f(a1):\n    return a1",
                   "function_name": "f", "input": "1", "output": "1", "loc": 2,
                   "executor": "external"}
        text = "".join(json.dumps(dict(problem, id=i)) + "\n" for i in ("p1", "p2", "p1"))
        for name in ("orig.jsonl", "mut.jsonl"):
            (tmp_path / name).write_text(text)
        assert dispatch(["run-pred", "--orig", "orig.jsonl", "--mut", "mut.jsonl",
                         "--model", "mock:ground-truth-given", "--out", "r.jsonl"]) == 1
        assert capsys.readouterr().err == "error: problem id 'p1' appears more than once\n"
        assert sorted(os.listdir(tmp_path)) == ["mut.jsonl", "orig.jsonl"]

    def test_mock_without_a_ground_truth_for_the_prompt(self, tmp_path, capsys,
                                                         monkeypatch):
        # the brainstorm prompt shows no program for the mock to look up
        monkeypatch.chdir(tmp_path)
        assert dispatch(["build-llm-list", "--model", "mock:ground-truth-given",
                         "--out", "x.jsonl"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: mock has no ground truth for this prompt: 'Your task is")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["ingest", "mutate"])
    def test_executor_command_that_cannot_start(self, tmp_path, capsys, monkeypatch,
                                                command):
        monkeypatch.chdir(tmp_path)
        record = {"source": "def f(a1):\n    return a1 + 1", "function_name": "f",
                  "input": "1"}
        if command == "mutate":
            record.update(id="p0", dataset="external", output="2", loc=2,
                          executor="external")
        (tmp_path / "in.jsonl").write_text(json.dumps(record) + "\n")
        failing = f"{shlex.quote(sys.executable)} -c 'import sys; sys.exit(1)'"
        options = ["--min-chars", "1"] if command == "ingest" else []
        assert dispatch([command, "--in", "in.jsonl", "--out", "out", *options,
                         "--executor-cmd", failing]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: executor command ") and err.count("\n") == 1
        assert err.endswith(" -c 'import sys; sys.exit(1)' failed its start-up probe: "
                            "its output ended, exit status 1\n")
        assert os.listdir(tmp_path) == ["in.jsonl"]


# Values whose JSON text has to be cut and joined exactly: escapes, line
# separators, non-ASCII text, empty strings, every constant, large ints, and
# floats at the edge of repr.
SPLIT_VALUES = ['say "hi"', "back\\slash\\", "line\nbreak\r\t", "\u2028\u2029", "é 中 😀",
                "", None, True, False, 10**30, -7, 0, 1e-300, -0.0, 0.1, 1792465208.0125332,
                [], {}, ['"', {"k": "\\"}], {"nested": {"": None}}]


class TestJsonLines:
    @pytest.mark.parametrize("value", SPLIT_VALUES)
    def test_split_json_around_one_key(self, value):
        obj = {"first": value, "b\"ack": "\\", "mid": value, "é": [value], "last": value}
        for key in obj:  # the key first or last leaves an empty part on that side
            head, tail = split_json(obj, key)
            assert head + encode_json(obj[key]) + tail == encode_json(obj)
            for other in SPLIT_VALUES:
                assert head + encode_json(other) + tail == encode_json({**obj, key: other})
        head, tail = split_json({"only": value}, "only")
        assert (head, tail) == ('{"only": ', "}")
        assert head + encode_json(value) + tail == encode_json({"only": value})

    @pytest.mark.parametrize("value", SPLIT_VALUES)
    def test_split_json_around_several_keys(self, value):
        obj = {"ts": 0.0, "model": "mock:x", "prompt": value, "response": value,
               "latency": 0.0}
        names = list(obj)
        for i, first in enumerate(names):
            for second in names[i + 1:]:
                # the parts follow the object's order, not the arguments'
                parts = split_json(obj, second, first)
                assert len(parts) == 3
                for a in (value, time.time(), "x"):
                    for b in (value, None, 'q"'):
                        whole = encode_json({**obj, first: a, second: b})
                        assert parts[0] + encode_json(a) + parts[1] + encode_json(b) \
                            + parts[2] == whole

    @pytest.mark.parametrize("value", [
        {"a": 1, "b": [1, 2.5, None, True, False], "c": 'é\n"\\ \x00\u2028'},
        {"inf": float("inf"), "nan": float("nan"), "big": 10**30, 1: -0.0},
        "text", [], {}, 1e-7,
    ])
    def test_writer_is_json_dumps(self, value):
        assert encode_json(value) == json.dumps(value, ensure_ascii=False)

    def test_reader_is_json_loads_on_every_line_shape(self, tmp_path):
        lines = ['{"k": 1}\n', '  {"k": 2}\n', '{"k": 3}  \n', '{"k": 4}\r\n', "\n",
                 ' \t\n', '{"k": "\\n"}\n', '{"k": 6}']
        path = tmp_path / "r.jsonl"
        path.write_bytes("".join(lines).encode("utf-8"))
        expected = [json.loads(line) for line in lines if line.strip()]
        assert read_records(str(path), dict) == expected
        path.write_bytes(b'{"k": 1} {"k": 2}\n')
        with pytest.raises(ValueError, match="Extra data"):
            read_records(str(path), dict)


class TestAtomicWriter:
    def test_failed_write_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "out.jsonl"
        target.write_text("old\n")
        with pytest.raises(RuntimeError):
            with atomic_writer(str(target)) as fh:
                fh.write("partial")
                raise RuntimeError("interrupted")
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["out.jsonl"]

    def test_interrupted_sample_leaves_target_untouched(self, tmp_path, monkeypatch):
        target = tmp_path / "corpus.jsonl"
        target.write_text("old\n")
        real_sample = grammar.sample_valid_program
        calls = []

        def failing_third_time(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise AttemptsExhausted("interrupted")
            return real_sample(*args, **kwargs)

        # cmd_sample imports the sampler when it runs, so patch its owner
        monkeypatch.setattr(grammar, "sample_valid_program", failing_third_time)
        assert dispatch(["sample", "-n", "5", "--seed", "2", "--out", str(target)]) == 1
        assert len(calls) == 3  # two programs were written before the failure
        assert target.read_text() == "old\n"
        assert os.listdir(tmp_path) == ["corpus.jsonl"]
