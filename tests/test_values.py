import copy

import pytest

from mutexec.values import (
    canonical_repr,
    contains_float,
    copy_value,
    format_args,
    is_boolean_output,
    parse_args,
    parse_literal,
    values_equal,
)


def test_canonical_repr_basics():
    assert canonical_repr(3) == "3"
    assert canonical_repr(True) == "True"
    assert canonical_repr(False) == "False"
    assert canonical_repr([1, 2]) == "[1, 2]"
    assert canonical_repr([]) == "[]"
    assert canonical_repr([[1], [True, -2]]) == "[[1], [True, -2]]"
    assert canonical_repr(None) == "None"
    assert canonical_repr((1,)) == "(1,)"
    assert canonical_repr({"a": 1}) == "{'a': 1}"


def test_canonical_repr_matches_python_repr_for_core_values():
    for value in (0, -5, True, [1, 2, 3], [[], [False]], "hi", (1, 2), None):
        assert canonical_repr(value) == repr(value)


def test_values_equal_strict_bool_int():
    assert not values_equal(True, 1)
    assert not values_equal(0, False)
    assert values_equal(True, True)
    assert values_equal(2, 2)
    assert not values_equal([True], [1])


def test_values_equal_list_tuple_distinct():
    assert not values_equal([1, 2], (1, 2))
    assert values_equal((1, [2]), (1, [2]))
    assert values_equal({"k": [1]}, {"k": [1]})
    assert not values_equal({"k": [1]}, {"k": (1,)})


def test_parse_literal_round_trip():
    for value in (3, True, [1, [2, 3]], [], None, "s", (1, 2)):
        assert values_equal(parse_literal(canonical_repr(value)), value)


def test_parse_literal_rejects_expressions():
    for bad in ("[1]+[2]", "f(1)", "len([1])", "1 if True else 2", "x"):
        with pytest.raises(ValueError):
            parse_literal(bad)


def test_parse_args():
    assert parse_args("[1, 2], 3") == ([1, 2], 3)
    assert parse_args("[4, 1, 3]") == ([4, 1, 3],)
    assert parse_args("") == ()
    assert format_args(([1, 2], 3)) == "[1, 2], 3"


def test_boolean_output_detection():
    assert is_boolean_output("True")
    assert is_boolean_output(" False ")
    assert not is_boolean_output("[True]")
    assert not is_boolean_output("1")


def test_contains_float():
    assert contains_float(1.5)
    assert contains_float([1, [2.0]])
    assert contains_float({"a": 1.0})
    assert not contains_float([1, 2, (3, True)])


def test_non_finite_floats_have_no_canonical_text():
    assert canonical_repr([1, 2.5, (3, "inf"), {"a": -0.0}]) == "[1, 2.5, (3, 'inf'), {'a': -0.0}]"
    for value in (float("inf"), [float("-inf")], {float("nan"): 1}, {"a": (float("nan"),)}):
        with pytest.raises(TypeError):
            canonical_repr(value)


def _shape(value, ids=None):
    """value's structure with each list or dict named by the order in which
    it is first reached, so two values compare equal exactly when they have
    the same contents and the same sharing."""
    ids = {} if ids is None else ids
    if isinstance(value, (list, dict)):
        if id(value) in ids:
            return ("ref", ids[id(value)])
        ids[id(value)] = len(ids)
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return (type(value).__name__, ids[id(value)],
                [(k, _shape(v, ids)) for k, v in items])
    if isinstance(value, tuple):
        return ("tuple", [_shape(v, ids) for v in value])
    return (type(value).__name__, value)


def _all_lists(value, found=None):
    found = {} if found is None else found
    if isinstance(value, list) and id(value) not in found:
        found[id(value)] = value
        for v in value:
            _all_lists(v, found)
    elif isinstance(value, (tuple, dict)):
        for v in (value.values() if isinstance(value, dict) else value):
            _all_lists(v, found)
    return found


def _copy_cases():
    inner = [1, 2]
    cyclic = [1]
    cyclic.append(cyclic)
    return [
        3, True, [], [4, 1, 3], [[1], [2, 3], []], [[True, False], [[0]]],
        [inner, inner], [[inner], inner], cyclic, [cyclic, 2],
        ([1, 2], [1, 2]), (inner, inner), "text", None, 1.5, {"k": [1]},
        [1, "a"], [(1, 2)], [1 << 70, -1],
    ]


@pytest.mark.parametrize("value", _copy_cases())
def test_copy_value_equals_deepcopy(value):
    copied = copy_value(value)
    assert _shape(copied) == _shape(copy.deepcopy(value))
    assert not set(_all_lists(copied)) & set(_all_lists(value))

