"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The live-endpoint smoke
test is network-gated behind MUTEXEC_LIVE_ENDPOINT / MUTEXEC_LIVE_MODEL.
"""

import json
import os
import random
import time

import pytest

from conftest import fixture_path, read_fixture

from mutexec import datasets, harness, metrics
from mutexec.dsl import (
    COMPARISONS,
    LOGICALS,
    check_constraints,
    to_sexpr,
    typecheck,
)
from mutexec.executors import BuiltinExecutor, ExternalExecutor
from mutexec.grammar import SamplerConfig, compile_cfg
from mutexec.llm_client import ALWAYS_A_TEXT, mock_model
from mutexec.minipy import interpret
from mutexec.mutate import (
    Survivor,
    enumerate_source_mutants,
    jaccard,
    mutate_dataset,
    mutation_sites,
    select_mutant,
)
from mutexec.problems import Problem, pair_by_id
from mutexec.values import canonical_repr, values_equal
from reference import PlainSampler, compile_violations, eval_dsl_outcome, verify_partition

def ok(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def full_corpus():
    return datasets.build_dsl_list(datasets.DslListConfig(seed=0))


@pytest.fixture(scope="module")
def full_pairs(full_corpus):
    kept, mutants = mutate_dataset(full_corpus, BuiltinExecutor(), seed=0)
    return kept, mutants


def test_01_oracle_equivalence():
    """interpret(translate(P), x) == eval_dsl(P, x) over >= 1000 pairs."""
    from mutexec.transpile import translate

    start = time.monotonic()
    pairs = 0
    checked_errors = 0
    for arity in (1, 2):
        for depth in (4, 5):
            cfg = compile_cfg(arity, depth)
            config = SamplerConfig()
            sampler = PlainSampler(cfg)
            rng = random.Random(1000 + arity * 10 + depth)
            produced = 0
            while produced < 90:
                term = sampler.sample(rng)
                if check_constraints(term, arity=arity):
                    continue
                produced += 1
                program = translate(term, arity=arity)
                from mutexec.grammar import sample_inputs

                for args in sample_inputs(arity, config, rng):
                    oracle = eval_dsl_outcome(term, args)
                    result = interpret(program.ast, args)
                    assert (oracle.status == "ok") == (result.status == "ok"), (
                        to_sexpr(term), args, oracle, result.error_kind,
                    )
                    if oracle.status == "ok":
                        assert values_equal(oracle.output, result.output) or (
                            oracle.output == result.output
                        ), (to_sexpr(term), args)
                    else:
                        checked_errors += 1
                        assert oracle.error_kind == result.error_kind, (
                            to_sexpr(term), args,
                        )
                    pairs += 1
    elapsed = time.monotonic() - start
    assert pairs >= 1000
    assert elapsed < 60, f"{elapsed:.1f}s"
    ok(1, f"{pairs} program-input pairs agree ({checked_errors} error cases), "
          f"{elapsed:.1f}s")


def _audit_constraints(term, arity: int) -> list[str]:
    """Independent structural audit of c1-c4/s1-s4 (no shared checker code)."""
    problems = []
    nodes = list(term.walk())
    index_first_args = set()
    for node in nodes:
        if node.head == "index" and node.children:
            index_first_args.add(id(node.children[0]))
    for node in nodes:
        kids = node.children
        if node.head in COMPARISONS and kids and kids[0].head == "lit":
            problems.append("c1")
        if not node.partial:
            last_restricted = {
                "extend": 1, "map": 1, "length": 0, "init": 0, "tail": 0,
            }
            if node.head in last_restricted:
                child = kids[last_restricted[node.head]]
                if child.head == "empty":
                    problems.append("c2" if node.head in ("extend", "map", "length")
                                    else "c4")
            if node.head == "index" and kids[1].head == "empty":
                problems.append("c4")
        if node.head == "lit" and node.value == -1 and id(node) not in index_first_args:
            problems.append("c3")
        if not node.partial:
            if node.head in COMPARISONS + LOGICALS and kids[0] == kids[1]:
                problems.append("s1")
            if node.head == "extend" and kids[0] == kids[1]:
                problems.append("s2")
            if node.head == "if" and kids[1] == kids[2]:
                problems.append("s3")
    used = {n.value for n in nodes if n.is_param}
    if used != set(range(1, arity + 1)):
        problems.append("s4")
    return problems


def test_02_constraint_soundness():
    """Zero c/s-rule violations over 10^4 structurally accepted samples."""
    start = time.monotonic()
    audited = 0
    violations = []
    per_combo = 2500
    for arity in (1, 2):
        for depth in (4, 5):
            cfg = compile_cfg(arity, depth)
            sampler = PlainSampler(cfg)
            rng = random.Random(20_000 + arity * 10 + depth)
            accepted = 0
            while accepted < per_combo:
                term = sampler.sample(rng)
                if check_constraints(term, arity=arity):
                    continue  # the pipeline's own rejection stage
                accepted += 1
                audited += 1
                typecheck(term)
                bad = _audit_constraints(term, arity)
                if bad:
                    violations.append((to_sexpr(term), bad))
    elapsed = time.monotonic() - start
    assert audited == 10_000
    assert not violations, violations[:5]
    assert elapsed < 60, f"{elapsed:.1f}s"
    ok(2, f"0 violations over {audited} samples, {elapsed:.1f}s")


def test_03_dataset_shape(full_corpus):
    """100 programs x 3 inputs; per-signature bin histogram [10]*5; seed-stable."""
    programs = {}
    for problem in full_corpus:
        programs.setdefault(problem.program_id, []).append(problem)
    assert len(programs) == 100
    assert all(len(group) == 3 for group in programs.values())
    assert len(full_corpus) == 300
    for arity in (1, 2):
        histogram = dict.fromkeys(datasets.LOC_BINS, 0)
        seen = set()
        for problem in full_corpus:
            if problem.arity != arity or problem.program_id in seen:
                continue
            seen.add(problem.program_id)
            for lo, hi in datasets.LOC_BINS:
                if lo <= problem.loc < hi:
                    histogram[(lo, hi)] += 1
        assert list(histogram.values()) == [10, 10, 10, 10, 10], (arity, histogram)
    rebuilt = datasets.build_dsl_list(datasets.DslListConfig(seed=0))
    assert [p.to_json() for p in rebuilt] == [p.to_json() for p in full_corpus]
    # every stored ground truth reproduces under re-execution, and every
    # emitted term still passes the full structural validation
    from mutexec.dsl import parse_sexpr

    executor = BuiltinExecutor()
    for problem in full_corpus:
        result = executor.run(problem.source, problem.function_name, problem.args())
        assert result.status == "ok"
        assert values_equal(result.output, problem.output_value())
        term = parse_sexpr(problem.dsl_text)
        typecheck(term)
        assert not compile_violations(term)
        assert not check_constraints(term, arity=problem.arity)
        assert term.depth() <= problem.depth
    ok(3, "300 problems, bin histograms [10,10,10,10,10], deterministic "
          "rebuild, all ground truths re-executed")


def test_04_mutant_validity(full_corpus, full_pairs):
    """One-token mutants, clean execution, P(x) != P'(x), equal counts."""
    kept, mutants = full_pairs
    assert len(kept) == len(mutants) > 0
    executor = BuiltinExecutor()
    for original, mutant in zip(kept, mutants):
        assert original.id == mutant.id
        diff = [
            (a, b) for a, b in zip(original.source.splitlines(),
                                   mutant.source.splitlines()) if a != b
        ]
        assert len(diff) == 1, mutant.id
        result = executor.run(mutant.source, mutant.function_name, mutant.args())
        assert result.status == "ok", mutant.id
        assert values_equal(result.output, mutant.output_value()), mutant.id
        assert not values_equal(original.output_value(), mutant.output_value())
    ok(4, f"{len(mutants)} mutants valid; {len(full_corpus) - len(kept)} "
          f"problems dropped from both sets")


def test_05_operator_table_coverage():
    """Each operator kind produces its canonical example transformation."""
    examples = [
        ("arithmetic", "def f(a, b):\n    return a + b",
         "def f(a, b):\n    return a - b"),
        ("relational", "def f(a, b):\n    return a < b",
         "def f(a, b):\n    return a <= b"),
        ("logical", "def f(a, b):\n    return a and b",
         "def f(a, b):\n    return a or b"),
        ("keyword",
         "def f(a1):\n    v = 0\n    for i in range(len(a1)):\n"
         "        if a1[i] == 0:\n            continue\n        v = v + a1[i]\n"
         "    return v",
         "def f(a1):\n    v = 0\n    for i in range(len(a1)):\n"
         "        if a1[i] == 0:\n            break\n        v = v + a1[i]\n"
         "    return v"),
        ("literal", "def f(a1):\n    return a1[1]",
         "def f(a1):\n    return a1[0]"),
    ]
    for kind, source, expected in examples:
        produced = {
            mutated for mutated, site in enumerate_source_mutants(source)
            if site.kind == kind
        }
        assert expected in produced, kind
    ok(5, "all five operator kinds reproduce their table examples")


def test_06_coverage_similarity_selection():
    """Hand-computed Jaccard ordering and uniform tie-breaking."""
    sites = mutation_sites("def f(a):\n    return a + 1 + 2")
    original = {1, 2, 3}
    a = Survivor("a", sites[0], None, {1, 2, 3})
    b = Survivor("b", sites[1], None, {1, 2})
    c = Survivor("c", sites[2], None, {1})
    assert jaccard(original, a.covered_lines) == 1.0
    assert abs(jaccard(original, b.covered_lines) - 2 / 3) < 1e-12
    assert abs(jaccard(original, c.covered_lines) - 1 / 3) < 1e-12
    assert select_mutant(original, [c, b, a], random.Random(0)).source == "a"

    counts = {"x": 0, "y": 0}
    for seed in range(1, 101):
        x = Survivor("x", sites[0], None, {1, 2})
        y = Survivor("y", sites[1], None, {2, 3})
        counts[select_mutant(original, [x, y], random.Random(seed)).source] += 1
    assert 40 <= counts["x"] <= 60, counts
    ok(6, f"argmax selection exact; tie split {counts['x']}/{counts['y']} "
          f"over seeds 1..100")


def test_07_sampling_distribution():
    """Production frequencies at a fixed nonterminal match weight ratios."""
    from scipy import stats

    cfg = compile_cfg(1, 5)
    sampler = PlainSampler(cfg)
    productions = cfg.productions[cfg.start]
    heads = [p.head for p in productions]
    assert "if" in heads and "map" in heads and "extend" in heads
    weights = [1.0 if p.head in ("lit", "param") else p.weight for p in productions]
    by_head = {h: w for h, w in zip(heads, weights)}
    assert by_head["if"] == 5.0 and by_head["map"] == 5.0
    assert by_head["extend"] == 0.05
    total = sum(weights)
    draws = 100_000
    rng = random.Random(31337)
    observed = [0] * len(productions)
    index = {id(p): i for i, p in enumerate(productions)}
    for _ in range(draws):
        observed[index[id(sampler.derive(rng)[0])]] += 1
    expected = [draws * w / total for w in weights]
    chi2, p_value = stats.chisquare(observed, expected)
    assert p_value > 0.001, (chi2, p_value)
    ok(7, f"chi-square p = {p_value:.3f} over {draws} draws "
          f"({len(productions)} productions)")


def test_08_mock_end_to_end_prediction(full_pairs):
    """ground-truth mocks reproduce the exact degenerate metric profile."""
    kept, mutants = full_pairs
    pairs = pair_by_id(kept, mutants)
    start = time.monotonic()

    given = mock_model("ground_truth_given", pairs=pairs)
    records = harness.run_prediction(kept, mutants, given, n=5)
    m = metrics.prediction_metrics(records)
    assert (m.oc, m.mc, m.or_, m.mr) == (100.0, 100.0, 0.0, 0.0)

    original = mock_model("ground_truth_original", pairs=pairs)
    records2 = harness.run_prediction(kept, mutants, original, n=5)
    m2 = metrics.prediction_metrics(records2)
    assert (m2.oc, m2.mc, m2.mr) == (100.0, 0.0, 100.0)
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"{elapsed:.1f}s"
    ok(8, f"given: OC=MC=100, OR=MR=0; original: OC=100, MC=0, MR=100 "
          f"({len(records)} records, {elapsed:.1f}s)")


def test_09_mock_end_to_end_choice(full_pairs):
    """Order swapping makes a letter-A bias exactly 50/50; gtg is 100% right."""
    kept, mutants = full_pairs
    pairs = pair_by_id(kept, mutants)

    always_a = mock_model("fixed", text=ALWAYS_A_TEXT)
    records = harness.run_choice(kept, mutants, always_a)
    m = metrics.choice_metrics(records)
    assert m.pref == 50.0

    given = mock_model("ground_truth_given", pairs=pairs)
    records2 = harness.run_choice(kept, mutants, given)
    m2 = metrics.choice_metrics(records2)
    assert m2.oc == 100.0 and m2.mc == 100.0
    assert m2.denominators["OC"] > 0 and m2.denominators["MC"] > 0
    ok(9, f"always-A Pref = {m.pref}; ground-truth chosen-variant "
          f"correctness OC={m2.oc}, MC={m2.mc}")


def _boolean_pair():
    original = Problem(
        id="bool-1", dataset="dsl-list",
        source="def f(a1):\n    return len(a1) > 2",
        function_name="f", input="[1, 2]", output="False", loc=2,
        executor="builtin",
    )
    mutant = Problem(
        id="bool-1", dataset="dsl-list",
        source="def f(a1):\n    return len(a1) >= 2",
        function_name="f", input="[1, 2]", output="True", loc=2,
        executor="builtin", mutation_info={"kind": "relational", "line": 2,
                                      "original_token": ">",
                                      "replacement_token": ">="},
    )
    return original, mutant


def test_10_metric_partition(full_pairs):
    """Per-variant judgments partition n=5; bool outputs leave reversion."""
    kept, mutants = full_pairs
    pairs = pair_by_id(kept, mutants)
    bool_orig, bool_mut = _boolean_pair()
    kept_plus = kept + [bool_orig]
    mutants_plus = mutants + [bool_mut]
    pairs_plus = pair_by_id(kept_plus, mutants_plus)

    model = mock_model("ground_truth_original", pairs=pairs_plus)
    records = harness.run_prediction(kept_plus, mutants_plus, model, n=5)
    assert verify_partition(records, 5) == []
    m = metrics.prediction_metrics(records)
    n_problems = len(kept_plus)
    n_bool = 1
    assert m.denominators["OC"] == n_problems
    assert m.denominators["MR"] == n_problems - n_bool
    assert m.denominators["boolean_excluded"] == 2 * n_bool  # both variants
    # the boolean pair is judged reverted at the record level but does not
    # enter the reversion denominator
    bool_records = [r for r in records if r.problem_id == "bool-1"
                    and r.variant == "mutated"]
    assert all(r.judgment == "reverted" for r in bool_records)
    assert m.mr == 100.0
    ok(10, f"judgment counts partition n=5 for {n_problems * 2} variants; "
           f"reversion denominators exclude exactly the boolean pair")


def test_11_prompt_fidelity():
    """Rendered prompts byte-match goldens transcribed from the templates."""
    original, mutant = (
        Problem(id="p1", dataset="dsl-list",
                source="def f(a1):\n    a1.pop(0)\n    return a1",
                function_name="f", input="[4, 1, 3]", output="[1, 3]",
                loc=3, executor="builtin"),
        Problem(id="p1", dataset="dsl-list",
                source="def f(a1):\n    a1.pop(-1)\n    return a1",
                function_name="f", input="[4, 1, 3]", output="[4, 1]",
                loc=3, executor="builtin"),
    )
    checks = [
        (harness.build_prediction_prompt(original, "zero_shot"),
         "golden_pred_zero_shot.txt"),
        (harness.build_prediction_prompt(original, "one_shot"),
         "golden_pred_one_shot.txt"),
        (harness.build_choice_prompt(original, mutant, "original_first"),
         "golden_choice_zero_shot_original_first.txt"),
        (harness.build_choice_prompt(original, mutant, "mutated_first"),
         "golden_choice_zero_shot_mutated_first.txt"),
        (harness.build_choice_prompt(original, mutant, "original_first", "one_shot"),
         "golden_choice_one_shot_original_first.txt"),
    ]
    for rendered, golden in checks:
        assert rendered == read_fixture(golden), golden
    assert '"bhihia"' in checks[1][0]
    assert "'Hello'" in checks[4][0]
    ok(11, f"{len(checks)} rendered prompts byte-match their goldens")


def test_12_differential_interpreter_check():
    """minipy and the reference executor agree on every fixture program in
    minipy's language, 100%; minipy declines the others as Unsupported."""
    from mutexec.values import parse_args

    builtin = BuiltinExecutor()
    with open(fixture_path("differential.jsonl")) as fh:
        entries = [json.loads(line) for line in fh if line.strip()]
    assert len(entries) >= 50
    mismatches = []
    declined = 0
    with ExternalExecutor() as external:
        for entry in entries:
            mini = builtin.run(entry["source"], entry["function_name"],
                               parse_args(entry["input"]))
            ext = external.run(entry["source"], entry["function_name"],
                               parse_args(entry["input"]))
            if mini.error_kind == "Unsupported":
                declined += 1
            elif mini.status != ext.status:
                mismatches.append(entry["source"])
            elif mini.status == "ok":
                if canonical_repr(mini.output) != canonical_repr(ext.output):
                    mismatches.append(entry["source"])
            elif mini.error_kind != ext.error_kind:
                mismatches.append(entry["source"])
    assert not mismatches, mismatches[:3]
    assert declined < len(entries) // 4
    ok(12, f"{len(entries) - declined} of {len(entries)} programs in the language, "
           "identical outputs and error kinds")


LIVE_ENDPOINT = os.environ.get("MUTEXEC_LIVE_ENDPOINT")
LIVE_MODEL = os.environ.get("MUTEXEC_LIVE_MODEL")


@pytest.mark.skipif(
    not (LIVE_ENDPOINT and LIVE_MODEL),
    reason="live smoke test needs MUTEXEC_LIVE_ENDPOINT and MUTEXEC_LIVE_MODEL",
)
def test_13_live_smoke(full_pairs, tmp_path):
    """Optional: 10 problems against a configured endpoint, fully logged."""
    from mutexec.llm_client import HttpModel, ModelConfig, Transcript

    kept, mutants = full_pairs
    kept, mutants = kept[:5], mutants[:5]  # 5 pairs = 10 problem variants
    transcript = Transcript(str(tmp_path / "transcript.jsonl"))
    profile = os.environ.get("MUTEXEC_LIVE_PROFILE", "traditional")
    config = ModelConfig(endpoint=LIVE_ENDPOINT, model=LIVE_MODEL, profile=profile)
    model = HttpModel(config, transcript)
    try:
        records = harness.run_prediction(
            kept, mutants, model, n=1, out_path=str(tmp_path / "records.jsonl")
        )
    finally:
        model.close()
    assert len(records) == 10
    m = metrics.prediction_metrics(records)
    report = metrics.render_report(f"live:{LIVE_MODEL}", m)
    assert "OC" in report
    logged = [json.loads(line) for line in open(transcript.path)]
    responses = [e for e in logged if "response" in e]
    assert len(responses) >= len([r for r in records if not r.error])
    ok(13, f"live run produced a report; {len(logged)} transcript entries")
