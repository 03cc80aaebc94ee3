from __future__ import annotations

import json
import random
import sys

import pytest

from knapagg import (
    DimensionMismatch,
    IPInstance,
    ParseError,
    UnboundedProblem,
    ValidationError,
    box_bounds,
    build_knapsack,
    canonicalize_minimize,
    evaluate,
    instance_digest,
    parse_instance,
    reduce,
    serialize_instance,
    solve_original,
)

DEMO = {
    "A": [["1", "1", "0"], ["0", "1", "1"]],
    "b": ["1", "1"],
    "c": ["1", "1", "1"],
    "sense": "min",
}


def test_parse_demo():
    inst = parse_instance(json.dumps(DEMO))
    assert inst.A == ((1, 1, 0), (0, 1, 1))
    assert inst.b == (1, 1)
    assert inst.c == (1, 1, 1)
    assert inst.sense == "min"
    assert inst.m == 2 and inst.n == 3


def test_parse_sense_defaults_to_min():
    doc = {k: v for k, v in DEMO.items() if k != "sense"}
    assert parse_instance(json.dumps(doc)).sense == "min"


def test_parse_accepts_negative_costs():
    doc = dict(DEMO, c=["-5", "0", "3"])
    assert parse_instance(json.dumps(doc)).c == (-5, 0, 3)


def test_parse_rejects_negative_matrix_entries():
    doc = dict(DEMO, A=[["-1", "1", "0"], ["0", "1", "1"]])
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(doc))


def test_parse_rejects_negative_rhs():
    doc = dict(DEMO, b=["1", "-1"])
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[1, 2, 3]",
        json.dumps({"A": [["1"]], "b": ["1"]}),               # missing c
        json.dumps(dict(DEMO, b=[1])),                         # bare number
        json.dumps(dict(DEMO, b=["1.5", "1"])),                # float string
        json.dumps(dict(DEMO, b=["0x1", "1"])),                # not decimal
        json.dumps(dict(DEMO, A="rows")),                      # wrong type
        json.dumps(dict(DEMO, sense="maximize")),              # bad sense
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_instance(text)


# Python 3.10 builds differ: some have no digit limit, some report 0 (none)
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="no limit on integer string digits")
def test_parse_rejects_integers_past_the_digit_limit():
    at_limit = "1" + "0" * (INT_DIGIT_LIMIT - 1)
    inst = parse_instance(json.dumps(dict(DEMO, c=["1", "1", at_limit])))
    assert inst.c[2] == int(at_limit)
    doc = dict(DEMO, b=["1", "-" + at_limit + "0"])
    message = rf"b\[1\]: {INT_DIGIT_LIMIT + 1} digits .* {INT_DIGIT_LIMIT}-digit limit"
    with pytest.raises(ParseError, match=message):
        parse_instance(json.dumps(doc))
    assert sys.get_int_max_str_digits() == INT_DIGIT_LIMIT


@pytest.mark.parametrize(
    "doc",
    [
        dict(DEMO, A=[["1", "1"], ["0", "1", "1"]]),           # ragged
        dict(DEMO, b=["1"]),                                   # wrong b length
        dict(DEMO, c=["1", "1"]),                              # wrong c length
        dict(DEMO, A=[], b=[], c=["1"]),                       # no rows
        {"A": [[], []], "b": ["0", "0"], "c": []},             # no columns
    ],
)
def test_parse_rejects_invalid(doc):
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(doc))


def test_serialize_round_trip():
    inst = parse_instance(json.dumps(DEMO))
    again = parse_instance(serialize_instance(inst))
    assert again == inst


def test_digest_is_stable_and_content_sensitive():
    a = parse_instance(json.dumps(DEMO))
    b = parse_instance(json.dumps(dict(DEMO, c=["1", "1", "2"])))
    assert instance_digest(a) == instance_digest(a)
    assert instance_digest(a) != instance_digest(b)


def test_constructor_validates():
    with pytest.raises(ValidationError):
        IPInstance.from_rows([], [], [])
    with pytest.raises(ValidationError):
        IPInstance.from_rows([[1, -1]], [1], [0, 0])
    with pytest.raises(ValidationError):
        IPInstance.from_rows([[1]], [-1], [0])
    with pytest.raises(ValidationError):
        IPInstance.from_rows([[1]], [1], [0], sense="best")


def test_box_bounds_demo():
    inst = parse_instance(json.dumps(DEMO))
    assert box_bounds(inst) == (1, 1, 1)


def test_box_bounds_tighter_row_wins():
    inst = IPInstance.from_rows([[1, 1], [1, 2]], [2, 3], [0, 0])
    assert box_bounds(inst) == (2, 1)


def test_box_bounds_zero_column_is_unbounded():
    inst = IPInstance.from_rows([[1, 0]], [5], [0, 0])
    assert box_bounds(inst) == (5, None)


def test_box_bounds_zero_rhs():
    inst = IPInstance.from_rows([[2, 1]], [0], [0, 0])
    assert box_bounds(inst) == (0, 0)


def test_box_bounds_contains_every_feasible_point():
    # independent brute force over a generous box
    rng = random.Random(421)
    for _ in range(60):
        m = rng.randint(1, 2)
        n = rng.randint(1, 3)
        A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        for j in range(n):
            A[rng.randrange(m)][j] = max(1, A[rng.randrange(m)][j])
        b = [rng.randint(0, 5) for _ in range(m)]
        inst = IPInstance.from_rows(A, b, [0] * n)
        upper = box_bounds(inst)
        limit = max(b) + 1
        stack = [()]
        for j in range(n):
            stack = [p + (v,) for p in stack for v in range(limit + 1)]
        for x in stack:
            if all(
                sum(A[i][j] * x[j] for j in range(n)) == b[i] for i in range(m)
            ):
                assert all(x[j] <= upper[j] for j in range(n))


def test_preprocess_drops_zero_columns():
    inst = IPInstance.from_rows([[1, 0], [1, 0]], [1, 1], [1, 5])
    red = reduce(inst)
    assert red.column_map == (0,)
    assert red.dropped == (1,)
    assert red.inner.A == ((1,), (1,))
    assert red.inner.c == (1,)
    assert red.original_n == 2
    assert red.lift((1,)) == (1, 0)


def test_preprocess_unbounded_on_negative_free_cost():
    inst = IPInstance.from_rows([[1, 0], [1, 0]], [1, 1], [1, -5])
    with pytest.raises(UnboundedProblem):
        solve_original(inst)


def test_preprocess_requires_min_sense():
    inst = IPInstance.from_rows([[1]], [1], [1], sense="max")
    with pytest.raises(ValidationError):
        build_knapsack(inst)


def test_preprocess_can_drop_everything():
    inst = IPInstance.from_rows([[0, 0]], [0], [1, 2])
    red = reduce(inst)
    assert red.inner.n == 0
    assert red.lift(()) == (0, 0)


def test_restrict_zero_rows_pins_supported_variables():
    inst = IPInstance.from_rows(
        [[1, 3, 3, 0], [0, 0, 1, 1]], [0, 2], [-3, -4, 3, 0]
    )
    res = reduce(inst)
    assert res.column_map == (3,)
    assert res.dropped == (0, 1, 2)
    assert res.inner.A == ((1,),)
    assert res.inner.b == (2,)
    assert res.inner.c == (0,)
    assert res.lift((2,)) == (0, 0, 0, 2)


def test_restrict_zero_rows_keeps_positive_rhs_untouched():
    inst = IPInstance.from_rows([[1, 1], [0, 2]], [2, 4], [1, 1])
    res = reduce(inst)
    assert res.inner is inst
    assert res.column_map == (0, 1)
    assert res.dropped == ()


def test_restrict_zero_rows_leaves_all_zero_rhs_alone():
    # nothing to separate when every entry is zero; the instance keeps
    # its single row so downstream shapes stay valid
    inst = IPInstance.from_rows([[1, 2], [3, 0]], [0, 0], [1, -1])
    res = reduce(inst)
    assert res.inner is inst


def test_reduce_pins_then_drops_free_columns():
    # column 0 is pinned by the zero row, column 1 survives, and column 2,
    # zero everywhere, is dropped in the same pass whatever its cost
    inst = IPInstance.from_rows([[2, 0, 0], [1, 1, 0]], [0, 3], [5, 1, -1])
    res = reduce(inst)
    assert res.column_map == (1,)
    assert res.dropped == (0, 2)
    assert res.zero_columns == (2,)
    assert res.inner.A == ((1,),)
    assert res.inner.b == (3,)
    assert res.inner.c == (1,)
    assert res.lift((3,)) == (0, 3, 0)
    with pytest.raises(DimensionMismatch):
        res.lift((3, 0))


def test_evaluate_residual_and_objective():
    inst = IPInstance.from_rows([[1, 0], [0, 2]], [1, 1], [3, 4])
    ev = evaluate(inst, (3, 0))
    assert ev.residual == (2, -1)
    assert ev.objective == 9
    assert not ev.feasible


def test_evaluate_feasible_point():
    inst = parse_instance(json.dumps(DEMO))
    ev = evaluate(inst, (0, 1, 0))
    assert ev.residual == (0, 0)
    assert ev.objective == 1
    assert ev.feasible


def test_evaluate_rejects_bad_points():
    inst = parse_instance(json.dumps(DEMO))
    with pytest.raises(DimensionMismatch):
        evaluate(inst, (1, 0))
    with pytest.raises(ValidationError):
        evaluate(inst, (1, -1, 0))


def test_canonicalize_minimize():
    inst = IPInstance.from_rows([[1]], [1], [7], sense="max")
    core = canonicalize_minimize(inst)
    assert core.sense == "min"
    assert core.c == (-7,)
    already = IPInstance.from_rows([[1]], [1], [7])
    assert canonicalize_minimize(already) == already
