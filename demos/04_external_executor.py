"""The subprocess executor protocol and external-problem ingestion.

Programs outside the mini-language (strings, imports, arbitrary Python) run
in a child process speaking one JSON request/response per line.  The same
channel powers ground-truth computation, mutation filtering, and ingestion
of externally collected problem files.
"""

import json

from mutexec.datasets import IngestConfig, ingest_external
from mutexec.executors import ExternalExecutor
from mutexec.mutate import mutate_dataset
from mutexec.values import parse_args

with ExternalExecutor() as executor:
    print("A request/response exchange:")
    request = {
        "source": "def f(s):\n    return s[::-1].upper()",
        "function_name": "f",
        "input": "'hello'",
    }
    print(f"  -> {json.dumps(request)}")
    result = executor.run(request["source"], "f", parse_args(request["input"]))
    print(f"  <- status={result.status} output={result.output!r} "
          f"covered={sorted(result.covered_lines)}\n")

    print("Ingesting raw problem records (length filter, determinism check):")
    records = [
        {"source": "def total(lst):\n    " + "x = 0\n    " * 10 +
                   "s = 0\n    for v in lst:\n        s += v\n    return s",
         "function_name": "total", "input": "[1, 2, 3]"},
        {"source": "def tiny(x):\n    return x", "function_name": "tiny",
         "input": "3"},
        {"source": "import time\ndef jitter(n):\n    " + "y = 1\n    " * 12 +
                   "return time.perf_counter_ns() + n",
         "function_name": "jitter", "input": "10"},
    ]
    problems, rejections = ingest_external(records, executor,
                                           IngestConfig(max_steps=None))
    for problem in problems:
        print(f"  accepted {problem.function_name}: "
              f"f({problem.input}) = {problem.output}")
    for rejection in rejections:
        print(f"  rejected {rejection.function_name}: {rejection.reason}")

    print("\nMutating an externally executed problem uses the same executor:")
    kept, mutants = mutate_dataset(problems, executor, seed=1)
    for original, mutant in zip(kept, mutants):
        print(f"  {mutant.mutation_info['original_token']!r} -> "
              f"{mutant.mutation_info['replacement_token']!r}: output "
              f"{original.output} -> {mutant.output}")
