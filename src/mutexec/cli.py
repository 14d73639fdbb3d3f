"""Command-line entry point wiring the pipeline together.

Subcommands: sample, transpile, build-dsl-list, build-llm-list, ingest,
mutate, run-pred, run-choice, report.  A process loads only the layers of the
subcommand it runs: ``build_parser`` gives options to the invoked subcommand
alone, each option helper imports the module that owns its defaults, and each
``cmd_*`` imports its modules when it is called.  A flat ``key = value``
config file can supply any long-form option of the subcommand; explicit flags
win.  Every artifact-producing command writes a ``<out>.manifest.json``
recording the command, seed (null for a command without ``--seed``), input
hashes, and tool version.  Usage errors, including an unknown config key or
an option value out of range, exit 2; pipeline failures exit 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys

from . import __version__
from .mutate import mutate_dataset
from .problems import (
    atomic_writer,
    encode_json,
    load_jsonl,
    pair_by_id,
    read_jsonl,
    save_jsonl,
    sha256,
)
from .values import canonical_repr, format_args


def load_config_file(path: str) -> dict[str, str]:
    """Flat ``key = value`` pairs; '#' starts a comment."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _flag(text: str) -> bool:
    """A config file's boolean: ``1/true/yes`` or ``0/false/no``, any case."""
    word = text.lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")


class UsageError(ValueError):
    """Options that are each valid but do not go together; exits 2."""


def _sha256(path: str) -> str:
    digest = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_path: str, command: str, args: argparse.Namespace,
                   inputs: list[str], outputs: list[str],
                   extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config_file": getattr(args, "config", None),
        "options": {
            k: v for k, v in sorted(vars(args).items())
            if k != "func" and not k.startswith("_") and isinstance(v, (str, int, float, bool, list, tuple, type(None)))
        },
        "inputs": {p: _sha256(p) for p in inputs if p and os.path.exists(p)},
        "outputs": outputs,
    }
    manifest.update(extra or {})
    with atomic_writer(out_path + ".manifest.json") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _apply_config_defaults(subparser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Pre-scan for --config and inject file values as subcommand defaults.

    Config keys use the option's dest name (dashes become underscores);
    explicit command-line flags still override.  A key that names no option
    of the subcommand is a ``ValueError``, as the flag would be a usage error.
    """
    path = None
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif arg.startswith("--config="):
            path = arg.split("=", 1)[1]
    if path is None:
        return
    values = load_config_file(path)
    dests = {action.dest for action in subparser._actions} - {"help"}
    unknown = sorted(set(values) - dests)
    if unknown:
        raise ValueError(f"{path}: {subparser.prog} has no option "
                         f"{', '.join(map(repr, unknown))}")
    defaults = {}
    for action in subparser._actions:
        key = action.dest
        if key not in values:
            continue
        raw = values[key]
        try:
            if action.type is not None:
                value = action.type(raw)
            elif isinstance(action.default, bool):
                value = _flag(raw)
            else:
                value = raw
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ValueError(f"{path}: {key}: {exc}") from None
        defaults[key] = [value] if isinstance(action, argparse._AppendAction) else value
        if action.required:
            action.required = False
    subparser.set_defaults(**defaults)


def _weight(text: str) -> tuple[str, float]:
    """``--weight NAME=W``: a DSL primitive and its sampling weight."""
    from .dsl import PRIM_BY_NAME

    name, _, value = text.partition("=")
    try:
        weight = float(value)
    except ValueError:
        weight = math.nan
    if name not in PRIM_BY_NAME or not 0 <= weight < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected NAME=W, a primitive and a number >= 0, got {text!r}")
    return name, weight


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}")
        return value
    return parse


def _seconds(text: str) -> float:
    """An argparse type: a positive, finite number of seconds."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a positive, finite number of seconds, got {text!r}")
    return value


def _command(text: str) -> str:
    """An argparse type: a command line that is not blank."""
    if not text.strip():
        raise argparse.ArgumentTypeError(f"expected a command, got {text!r}")
    return text


def _sampler_config(args: argparse.Namespace):
    from .grammar import SamplerConfig

    for option, lo, hi in (("list-len", args.list_len_min, args.list_len_max),
                           ("element", args.element_min, args.element_max)):
        if lo > hi:
            raise UsageError(f"--{option}-min {lo} is above --{option}-max {hi}")
    return SamplerConfig(
        weight_overrides=dict(args.weight or ()),
        input_count=args.input_count,
        list_len_range=(args.list_len_min, args.list_len_max),
        element_range=(args.element_min, args.element_max),
        max_attempts=args.max_attempts,
    )


def _make_executor(args: argparse.Namespace):
    from .executors import BuiltinExecutor, ExternalExecutor

    if args.executor == "builtin":
        return BuiltinExecutor()
    return ExternalExecutor(args.executor_cmd, args.executor_timeout)


def _make_model(args: argparse.Namespace, pairs=None):
    from .llm_client import ModelConfig, Transcript, parse_model_spec

    transcript = Transcript(args.transcript)
    config = ModelConfig(
        endpoint=args.endpoint,
        profile=args.model_profile,
        parallelism=args.parallelism,
        max_tokens=args.max_tokens,
    )
    return parse_model_spec(args.model, pairs=pairs, transcript=transcript,
                            config=config), transcript


# ---------------------------------------------------------------------------
# Subcommands


def cmd_sample(args) -> int:
    from .dsl import to_sexpr
    from .grammar import compile_cfg, list_program_type, sample_valid_program

    config = _sampler_config(args)
    program_type = list_program_type(args.arity)
    cfg = compile_cfg(args.arity, args.depth)
    rng = random.Random(args.seed)
    with atomic_writer(args.out) as fh:
        for _ in range(args.count):
            sp = sample_valid_program(cfg, config, rng=rng)
            fh.write(encode_json({
                "dsl_text": to_sexpr(sp.term),
                "type": repr(program_type),
                "depth": sp.term.depth(),
                "inputs": [format_args(a) for a in sp.inputs],
                "outputs": [canonical_repr(o) for o in sp.outputs],
            }) + "\n")
    write_manifest(args.out, "sample", args, [], [args.out])
    return 0


def cmd_transpile(args) -> int:
    from .dsl import TFun, TypeMismatch, parse_sexpr, typecheck
    from .transpile import UntranslatableNode, translate

    path = getattr(args, "in")
    rows = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                text = json.loads(line).get("dsl_text") if line.startswith("{") else line
                if not isinstance(text, str):
                    raise ValueError("expected a string field 'dsl_text'")
                term = parse_sexpr(text)
                if isinstance(typecheck(term), TFun):
                    raise ValueError("a function is not a program")
                program = translate(term, args.function_name)
            except (ValueError, TypeMismatch, UntranslatableNode) as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None
            rows.append({"dsl_text": text, "source": program.source, "loc": program.loc})
    with atomic_writer(args.out) as fh:
        for row in rows:
            fh.write(encode_json(row) + "\n")
    write_manifest(args.out, "transpile", args, [path], [args.out])
    return 0


def cmd_build_dsl_list(args) -> int:
    from . import datasets

    config = datasets.DslListConfig(
        seed=args.seed,
        programs_per_combo=args.programs_per_combo,
        per_bin=args.per_bin,
        sampler=_sampler_config(args),
    )
    problems = datasets.build_dsl_list(config)
    save_jsonl(problems, args.out)
    write_manifest(args.out, "build-dsl-list", args, [], [args.out])
    print(f"wrote {len(problems)} problems to {args.out}")
    return 0


def cmd_build_llm_list(args) -> int:
    from . import datasets

    model, transcript = _make_model(args)
    executor = _make_executor(args)
    try:
        problems = datasets.build_llm_list(model, executor, args.max_regenerations)
    finally:
        executor.close()
        model.close()
    save_jsonl(problems, args.out)
    write_manifest(args.out, "build-llm-list", args, [], [args.out])
    print(f"wrote {len(problems)} problems to {args.out} "
          f"({transcript.entries} model calls logged)")
    return 0


def cmd_ingest(args) -> int:
    from . import datasets

    if args.min_chars > args.max_chars:
        raise UsageError(f"--min-chars {args.min_chars} is above --max-chars {args.max_chars}")
    records = read_jsonl(getattr(args, "in"), datasets.external_record)
    executor = _make_executor(args)
    try:
        problems, rejections = datasets.ingest_external(
            records, executor,
            datasets.IngestConfig(args.min_chars, args.max_chars, args.max_steps),
        )
    finally:
        executor.close()
    save_jsonl(problems, args.out)
    rejects_path = args.out + ".rejected.jsonl"
    with atomic_writer(rejects_path) as fh:
        for r in rejections:
            fh.write(encode_json(r.to_json()) + "\n")
    write_manifest(args.out, "ingest", args, [getattr(args, "in")],
                   [args.out, rejects_path])
    print(f"ingested {len(problems)} problems, rejected {len(rejections)}")
    return 0


def cmd_mutate(args) -> int:
    from .executors import BuiltinExecutor

    problems = load_jsonl(getattr(args, "in"))
    if not problems:
        print("no problems in input", file=sys.stderr)
        return 1
    executor = (
        BuiltinExecutor() if all(p.executor == "builtin" for p in problems)
        else _make_executor(args)
    )
    try:
        kept, mutants = mutate_dataset(problems, executor, seed=args.seed)
    finally:
        executor.close()
    os.makedirs(args.out, exist_ok=True)
    kept_path = os.path.join(args.out, "originals.jsonl")
    mut_path = os.path.join(args.out, "mutants.jsonl")
    save_jsonl(kept, kept_path)
    save_jsonl(mutants, mut_path)
    write_manifest(os.path.join(args.out, "mutate"), "mutate", args,
                   [getattr(args, "in")], [kept_path, mut_path])
    dropped = len(problems) - len(kept)
    print(f"kept {len(kept)} pairs ({dropped} dropped for empty mutant sets)")
    return 0


def _check_templates() -> bool:
    from . import harness

    mismatched = harness.verify_templates()
    if mismatched:
        print(f"error: prompt templates drifted from their committed digests: "
              f"{', '.join(mismatched)}", file=sys.stderr)
    return not mismatched


def _model_config_sha(args) -> str:
    fields = {k: getattr(args, k, None)
              for k in ("model", "model_profile", "endpoint", "max_tokens", "mode")}
    return sha256(
        json.dumps(fields, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _run_model(args, command: str, kind: str, load_records, run) -> int:
    """Shared body of run-pred and run-choice: resume or restart the records
    file, run the experiment, and write the manifest."""
    if not _check_templates():
        return 1
    originals = load_jsonl(args.orig)
    mutants = load_jsonl(args.mut)
    model, transcript = _make_model(args, pairs=pair_by_id(originals, mutants))
    resume = None
    if os.path.exists(args.out):
        if args.resume:
            resume = load_records(args.out)
        else:
            os.unlink(args.out)
    try:
        records = run(originals, mutants, model, mode=args.mode,
                      out_path=args.out, resume=resume)
    finally:
        model.close()
    write_manifest(args.out, command, args, [args.orig, args.mut], [args.out],
                   extra={"model_config_sha": _model_config_sha(args)})
    print(f"{len(records)} {kind} records -> {args.out} "
          f"({transcript.entries} model calls logged)")
    return 0


def cmd_run_pred(args) -> int:
    from . import harness

    return _run_model(args, "run-pred", "prediction", harness.load_prediction_records,
                      functools.partial(harness.run_prediction, n=args.n))


def cmd_run_choice(args) -> int:
    from . import harness

    return _run_model(args, "run-choice", "choice", harness.load_choice_records,
                      harness.run_choice)


def cmd_report(args) -> int:
    from . import harness, metrics

    prediction = choice = None
    pred_records = []
    if args.pred:
        pred_records = harness.load_prediction_records(args.pred)
        prediction = metrics.prediction_metrics(pred_records)
    if args.choice:
        choice = metrics.choice_metrics(harness.load_choice_records(args.choice))
    if prediction is None and choice is None:
        print("nothing to report: pass --pred and/or --choice", file=sys.stderr)
        return 2
    text = metrics.render_report(args.label, prediction, choice)
    print(text, end="")
    if args.out:
        with atomic_writer(args.out) as fh:
            fh.write(text)
    if args.csv:
        with atomic_writer(args.csv) as fh:
            fh.write(metrics.metrics_csv(args.label, prediction, choice))
    if args.loc_csv:
        with atomic_writer(args.loc_csv) as fh:
            fh.write(metrics.loc_series_csv(metrics.loc_series(pred_records)))
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


def _add_sampler_options(parser):
    parser.add_argument("--input-count", type=_int_at_least(1), default=3)
    parser.add_argument("--list-len-min", type=_int_at_least(0), default=3)
    parser.add_argument("--list-len-max", type=_int_at_least(0), default=5)
    parser.add_argument("--element-min", type=int, default=0)
    parser.add_argument("--element-max", type=int, default=5)
    parser.add_argument("--max-attempts", type=_int_at_least(1), default=10_000)
    parser.add_argument("--weight", action="append", type=_weight, metavar="NAME=W",
                        help="override a primitive weight (repeatable)")


def _add_executor_options(parser):
    from .executors import DEFAULT_TIMEOUT

    parser.add_argument("--executor", choices=("builtin", "external"),
                        default="external")
    parser.add_argument("--executor-cmd", type=_command,
                        help="external executor command (default: bundled)")
    parser.add_argument("--executor-timeout", type=_seconds, default=DEFAULT_TIMEOUT)


def _add_model_options(parser):
    from .harness import MODES
    from .llm_client import DEFAULT_ENDPOINT

    parser.add_argument("--model", required=True,
                        help="mock:ground-truth-given | mock:ground-truth-original |"
                             " mock:always-a | mock:fixed:<text> |"
                             " mock:scripted:<transcript> | http:<model-id>")
    parser.add_argument("--model-profile", default="traditional",
                        choices=("traditional", "reasoning", "effort"))
    parser.add_argument("--endpoint", default=DEFAULT_ENDPOINT)
    parser.add_argument("--parallelism", type=_int_at_least(1), default=4)
    parser.add_argument("--max-tokens", type=_int_at_least(0), default=None)
    parser.add_argument("--transcript", help="append-only request/response log")
    parser.add_argument("--mode", choices=MODES, default=None,
                        help="prompt mode (default: per model profile)")


def _add_sample_options(p):
    p.add_argument("--arity", type=int, default=1, choices=(1, 2))
    p.add_argument("--depth", type=_int_at_least(2), default=5, help="max AST depth")
    _add_sampler_options(p)
    p.add_argument("--count", "-n", type=_int_at_least(1), default=10)
    p.add_argument("--out", required=True)


def _add_transpile_options(p):
    p.add_argument("--in", required=True, help="s-expression lines or sample JSONL")
    p.add_argument("--function-name", default="f")
    p.add_argument("--out", required=True)


def _add_build_dsl_list_options(p):
    _add_sampler_options(p)
    p.add_argument("--programs-per-combo", type=_int_at_least(1), default=1000)
    p.add_argument("--per-bin", type=_int_at_least(1), default=10,
                   help="programs selected per lines-of-code bin")
    p.add_argument("--out", required=True)


def _add_build_llm_list_options(p):
    _add_model_options(p)
    _add_executor_options(p)
    p.add_argument("--max-regenerations", type=_int_at_least(0), default=5)
    p.add_argument("--out", required=True)


def _add_ingest_options(p):
    _add_executor_options(p)
    p.add_argument("--in", required=True)
    p.add_argument("--min-chars", type=_int_at_least(0), default=100)
    p.add_argument("--max-chars", type=_int_at_least(0), default=800)
    p.add_argument("--max-steps", type=_int_at_least(0), default=1000)
    p.add_argument("--out", required=True)


def _add_mutate_options(p):
    _add_executor_options(p)
    p.add_argument("--in", required=True)
    p.add_argument("--out", required=True, help="output directory")


def _add_run_options(p, samples: bool):
    _add_model_options(p)
    p.add_argument("--orig", required=True)
    p.add_argument("--mut", required=True)
    if samples:
        p.add_argument("--n", type=_int_at_least(1), default=5, help="samples per problem-variant")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--out", required=True)


def _add_report_options(p):
    p.add_argument("--pred", help="prediction records JSONL")
    p.add_argument("--choice", help="choice records JSONL")
    p.add_argument("--label", default="run")
    p.add_argument("--out", help="plain-text report path")
    p.add_argument("--csv", help="metrics CSV path")
    p.add_argument("--loc-csv", help="LOC-binned series CSV path")


# name -> (help, option adder, handler), in the order --help lists them
COMMANDS = {
    "sample": ("sample valid programs to a JSONL corpus",
               _add_sample_options, cmd_sample),
    "transpile": ("translate s-expression terms to source",
                  _add_transpile_options, cmd_transpile),
    "build-dsl-list": ("build the sampled-program dataset",
                       _add_build_dsl_list_options, cmd_build_dsl_list),
    "build-llm-list": ("build the LLM-generated dataset",
                       _add_build_llm_list_options, cmd_build_llm_list),
    "ingest": ("ingest externally collected problems",
               _add_ingest_options, cmd_ingest),
    "mutate": ("produce paired original/mutant datasets",
               _add_mutate_options, cmd_mutate),
    "run-pred": ("execution-prediction experiment",
                 functools.partial(_add_run_options, samples=True), cmd_run_pred),
    "run-choice": ("execution-choice experiment",
                   functools.partial(_add_run_options, samples=False), cmd_run_choice),
    "report": ("aggregate records into metric tables",
               _add_report_options, cmd_report),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``mutexec`` parser.  Every subcommand is listed by name and help
    text; only ``command`` gets its options, so building the parser imports
    no layer that another subcommand needs."""
    parser = argparse.ArgumentParser(
        prog="mutexec",
        description="Generate, mutate, execute, and evaluate list-processing programs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_options, func) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if name == command:
            p.add_argument("--config", help="flat key=value config file")
            if name in ("sample", "build-dsl-list", "mutate"):  # they draw random numbers
                p.add_argument("--seed", type=int, default=0, help="global random seed")
            add_options(p)
            p.set_defaults(func=func)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    command = next((a for a in argv if a in COMMANDS), None)
    parser = build_parser(command)
    if command is not None:
        subparsers = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        try:
            _apply_config_defaults(subparsers.choices[command], argv)
        except (OSError, ValueError, argparse.ArgumentTypeError) as exc:
            print(f"error reading config: {exc}", file=sys.stderr)
            return 2
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, RuntimeError) as exc:
        # str() of a KeyError is the repr of its message
        single_key = isinstance(exc, KeyError) and len(exc.args) == 1
        print(f"error: {exc.args[0] if single_key else exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
