import json
import os
import random

import pytest

from mutexec import harness
from mutexec.cli import dispatch, load_config_file
from mutexec.problems import atomic_writer, load_jsonl


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
        assert manifest["outputs"] == [str(tiny_dataset / "problems.jsonl")]
        mutate_manifest = json.load(open(tiny_dataset / "pairs" / "mutate.manifest.json"))
        assert str(tiny_dataset / "problems.jsonl") in mutate_manifest["inputs"]


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

    def test_report_requires_input(self, capsys):
        assert dispatch(["report", "--label", "x"]) == 2

    @pytest.mark.parametrize("command", ["run-pred", "run-choice"])
    def test_resume_after_torn_tail(self, tiny_dataset, tmp_path, command):
        orig = str(tiny_dataset / "pairs" / "originals.jsonl")
        mut = str(tiny_dataset / "pairs" / "mutants.jsonl")
        if command == "run-pred":
            extra, load = ["--n", "2"], harness.load_prediction_records
        else:
            extra, load = [], harness.load_choice_records
        argv = [command, "--orig", orig, "--mut", mut, *extra,
                "--model", "mock:ground-truth-given"]
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
