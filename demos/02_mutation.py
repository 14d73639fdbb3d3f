"""Single-operator mutation with coverage-similar selection, step by step.

Enumerates every one-token mutant of a small program, filters the ones that
crash or keep the output unchanged, and picks the survivor whose line
coverage is closest to the original's.
"""

import random

from mutexec.executors import BuiltinExecutor
from mutexec.mutate import enumerate_source_mutants, jaccard, mutate_problem, problem_calls
from mutexec.problems import Problem

source = """\
def f(a1):
    v1 = []
    for i in range(len(a1)):
        if a1[i] > 2:
            v1.append(a1[i] + 1)
        else:
            v1.append(0)
    return v1"""

executor = BuiltinExecutor()
args_text = "[1, 3, 5]"
base = executor.run(source, "f", ([1, 3, 5],))
problem = Problem(
    id="demo", dataset="dsl-list", source=source, function_name="f",
    input=args_text, output=str(base.output), loc=8, executor="builtin",
)

print("original program:")
print(source)
print(f"\nf({args_text}) = {base.output}, covered lines = {sorted(base.covered_lines)}")

candidates = enumerate_source_mutants(source)
print(f"\n{len(candidates)} candidate mutants from "
      f"{len({s.start for _, s in candidates})} sites:")
for _, site in candidates[:6]:
    print(f"  line {site.line}: {site.kind:<10} "
          f"{site.original_token!r} -> {site.replacement_token!r}")
print("  ...")

results = executor.run_many(problem_calls(problem, candidates))
mutants = mutate_problem(problem, results, random.Random(7), candidates)
survivors = mutants.survivors
print(f"\n{len(survivors)} survivors execute cleanly and change the output:")
for survivor in survivors[:8]:
    similarity = jaccard(base.covered_lines, survivor.covered_lines)
    print(f"  {survivor.site.original_token!r} -> "
          f"{survivor.site.replacement_token!r} at line {survivor.site.line}: "
          f"output {survivor.output}, coverage similarity {similarity:.2f}")

selected = mutants.selected
print("\nselected mutant (most similar coverage):")
print(selected.source)
print(f"f({args_text}) = {selected.output}")
