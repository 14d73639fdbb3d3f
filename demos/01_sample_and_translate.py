"""Sampling typed list programs and translating them to imperative code.

Walks through the core generation loop: compile the DSL + constraints into a
weighted CFG, sample terms, translate them, and show that the reference
evaluator and the interpreter agree on every input.
"""

import random

from mutexec.dsl import eval_dsl_outcome, list_dsl, to_sexpr, typecheck
from mutexec.grammar import (
    SamplerConfig,
    compile_cfg,
    count_derivations,
    list_program_type,
    sample_valid_program,
)
from mutexec.minipy import interpret
from mutexec.transpile import translate

primitives, constraints = list_dsl()
program_type = list_program_type(1)

print("Compiling the grammar for one-argument programs at depth 4...")
cfg = compile_cfg(primitives, constraints, program_type, max_depth=4)
print(f"  nonterminals: {len(cfg.productions)}")
print(f"  derivations:  {count_derivations(cfg):,}")
print()

config = SamplerConfig(program_type=program_type, max_depth=4)
rng = random.Random(2)

for i in range(3):
    sampled = sample_valid_program(cfg, config, rng=rng)
    term = sampled.term
    print(f"program {i + 1} (accepted after {sampled.attempts} attempts)")
    print(f"  term:  {to_sexpr(term)}")
    print(f"  type:  {typecheck(term)!r}")
    program = sampled.program  # the translation the outputs came from
    print("  translation:")
    for line in program.source.splitlines():
        print(f"    {line}")
    for args, expected in zip(sampled.inputs, sampled.outputs):
        oracle = eval_dsl_outcome(term, args)
        result = interpret(program.ast, args)
        agree = oracle.output == result.output
        print(f"  f{args!r} -> {result.output}   "
              f"(reference evaluator agrees: {agree})")
    print()

print("Both-branch semantics: the translation evaluates statement effects")
print("of both if-branches before selecting, and the evaluator mirrors it:")
from mutexec.dsl import parse_sexpr

term = parse_sexpr("(if (> (length a1) 2) a1 (tail a1))")
program = translate(term, arity=1)
print(program.source)
print(f"f([1, 2]) = {interpret(program.ast, ([1, 2],)).output}  "
      "(the pop ran even though the else-branch was not selected)")
