"""Value representation shared by every execution path.

Runtime values are plain Python objects (int, bool, list, and for externally
executed programs also str, tuple, dict, None).  Two things are centralized
here because every module must agree on them:

* the canonical text form used whenever a value is serialized (ground truths,
  executor responses, prompts), and
* strict structural equality used for all judgments (bool is never equal to
  int, list is never equal to tuple).
"""

from __future__ import annotations

import ast
import copy
import math
from typing import Any

Value = Any

INT_MIN = -(2**63 - 1)
INT_MAX = 2**63 - 1
MAX_NESTING = 200  # the brackets CPython's tokenizer lets a text hold open


def canonical_repr(value: Value) -> str:
    """Canonical literal text: lists as ``[e1, e2]``, booleans ``True``/``False``.

    Raises TypeError for a value that has none: one that holds bytes, a
    complex, an ``inf`` or a ``nan``, or any other type not listed here.
    """
    if isinstance(value, bool):
        return "True" if value else "False"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, list):
        return "[" + ", ".join(canonical_repr(v) for v in value) + "]"
    if isinstance(value, tuple):
        if len(value) == 1:
            return "(" + canonical_repr(value[0]) + ",)"
        return "(" + ", ".join(canonical_repr(v) for v in value) + ")"
    if isinstance(value, dict):
        items = ", ".join(
            canonical_repr(k) + ": " + canonical_repr(v) for k, v in value.items()
        )
        return "{" + items + "}"
    if isinstance(value, (set, frozenset)):
        if not value:
            return "set()"
        return "{" + ", ".join(sorted(canonical_repr(v) for v in value)) + "}"
    if value is None:
        return "None"
    if isinstance(value, str) or isinstance(value, float) and math.isfinite(value):
        return repr(value)
    raise TypeError(f"no canonical representation for {type(value).__name__}")


def values_equal(a: Value, b: Value) -> bool:
    """Deep structural equality with strict typing (True != 1, [1] != (1,))."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, int) or isinstance(b, int):
        return type(a) is type(b) and a == b
    if isinstance(a, list) or isinstance(b, list):
        return (
            isinstance(a, list)
            and isinstance(b, list)
            and len(a) == len(b)
            and all(values_equal(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, tuple) or isinstance(b, tuple):
        return (
            isinstance(a, tuple)
            and isinstance(b, tuple)
            and len(a) == len(b)
            and all(values_equal(x, y) for x, y in zip(a, b))
        )
    if isinstance(a, dict) or isinstance(b, dict):
        if not (isinstance(a, dict) and isinstance(b, dict)) or len(a) != len(b):
            return False
        if set(a.keys()) != set(b.keys()):
            return False
        return all(values_equal(a[k], b[k]) for k in a)
    if type(a) is not type(b):
        return False
    return a == b


def parse_literal(text: str) -> Value:
    """Parse a pure literal (no names, calls, or unsimplified expressions).

    Raises ValueError if the text is not a literal.
    """
    try:
        return ast.literal_eval(text.strip())
    except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError) as exc:
        raise ValueError(f"not a literal: {text!r}") from exc


def parse_args(text: str) -> tuple[Value, ...]:
    """Parse comma-separated argument literals, e.g. ``"[1, 2], 3"`` -> ([1, 2], 3)."""
    return parse_literal("(" + text + ",)") if text.strip() else ()


def format_args(args: tuple[Value, ...]) -> str:
    return ", ".join(canonical_repr(a) for a in args)


def is_boolean_output(output_text: str) -> bool:
    return output_text.strip() in ("True", "False")


class _NotATree(Exception):
    pass


def _copy_tree(value: Value, seen: set[int]) -> Value:
    if type(value) is list:
        if id(value) in seen:
            raise _NotATree
        seen.add(id(value))
        return [v if type(v) is int or type(v) is bool else _copy_tree(v, seen) for v in value]
    if type(value) is int or type(value) is bool:
        return value
    raise _NotATree


def copy_value(value: Value) -> Value:
    """``copy.deepcopy(value)``, fast for the values programs take.

    Ints, bools and lists of them in which no list occurs twice are copied
    here; any other value, or one in which a list is shared, goes through
    ``copy.deepcopy``, which keeps the sharing in the copy.
    """
    try:
        return _copy_tree(value, set())
    except _NotATree:
        return copy.deepcopy(value)


def _height(value: list, room: int, heights: dict[int, int | None]) -> int:
    """How deep the lists in ``value`` nest, itself counted, or more than
    ``room`` if deeper; ``heights`` holds the heights of the lists walked,
    None while a list is being walked."""
    if id(value) in heights:
        height = heights[id(value)]
        return room + 1 if height is None else height  # None: it holds itself
    if room == 0:
        return 1
    heights[id(value)] = None
    height = 1 + max((_height(v, room - 1, heights) for v in value if type(v) is list),
                     default=0)
    heights[id(value)] = height
    return height


def parses_back(value: Value) -> bool:
    """Whether the canonical text of ``value``, a value minipy builds, parses
    back: its lists nest at most ``MAX_NESTING`` deep.  A list that holds
    itself nests without end.  The walk is linear in the lists and never
    deeper than ``MAX_NESTING``."""
    return type(value) is not list or _height(value, MAX_NESTING, {}) <= MAX_NESTING


def contains_float(value: Value) -> bool:
    if isinstance(value, float):
        return True
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(contains_float(v) for v in value)
    if isinstance(value, dict):
        return any(contains_float(k) or contains_float(v) for k, v in value.items())
    return False
