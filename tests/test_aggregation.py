from __future__ import annotations

import random
from itertools import product

import pytest

from knapagg import (
    IPInstance,
    ValidationError,
    aggregate,
    aggregation_vector,
    box_bounds,
    build_knapsack,
    reduce,
    vertex_lower_bound,
)
from knapagg.aggregation import AggregatedRow, aggregate_row, penalize


def test_aggregation_vector_examples():
    assert aggregation_vector((1, 1)) == (1, 2)
    assert aggregation_vector((2, 3)) == (1, 3)
    assert aggregation_vector((4, 4, 4, 4)) == (1, 5, 25, 125)
    assert aggregation_vector((9,)) == (1,)


def test_aggregation_vector_rejects_bad_input():
    with pytest.raises(ValidationError):
        aggregation_vector(())
    with pytest.raises(ValidationError):
        aggregation_vector((2, -1))


def test_aggregation_vector_refuses_a_negative_entry_before_the_last():
    with pytest.raises(ValidationError) as raised:
        aggregation_vector((3, -1, 2))
    assert str(raised.value) == "right-hand side entries must be nonnegative"


def test_rhs_telescopes_to_product():
    rng = random.Random(99)
    for _ in range(50):
        m = rng.randint(1, 6)
        b = [rng.randint(0, 10**6) for _ in range(m)]
        f = aggregation_vector(b)
        product = 1
        for bi in b:
            product *= bi + 1
        assert sum(fi * bi for fi, bi in zip(f, b)) == product - 1


def _reduced(A, b, c):
    return reduce(IPInstance.from_rows(A, b, c))


def _aggregate(red):
    return aggregate(red.inner.A, red.inner.b)


def test_aggregate_demo():
    a, a0 = _aggregate(_reduced([[1, 1, 0], [0, 1, 1]], [1, 1], [1, 1, 1]))
    assert a == (1, 3, 2)
    assert a0 == 3


def test_aggregate_keeps_weights_positive():
    a, a0 = _aggregate(_reduced([[1, 0], [0, 2]], [1, 1], [0, 0]))
    assert a == (1, 4)
    assert a0 == 3
    assert all(w > 0 for w in a)


def test_aggregated_rhs_is_permutation_invariant():
    rng = random.Random(5150)
    changed = 0
    for _ in range(40):
        m = rng.randint(2, 4)
        n = rng.randint(1, 3)
        A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        for j in range(n):
            A[rng.randrange(m)][j] = max(1, A[rng.randrange(m)][j])
        b = [rng.randint(0, 6) for _ in range(m)]
        perm = list(range(m))
        rng.shuffle(perm)
        base = _reduced(A, b, [0] * n)
        shuf = _reduced([A[i] for i in perm], [b[i] for i in perm], [0] * n)
        a1, a01 = _aggregate(base)
        a2, a02 = _aggregate(shuf)
        assert a01 == a02
        if a1 != a2:
            changed += 1
    assert changed > 0  # the row itself genuinely depends on the order


def _kp(A, b, c):
    return build_knapsack(IPInstance.from_rows(A, b, c))


def test_nonneg_cost_shift():
    # one positive b_i per row keeps every row and column, so the column
    # sums are the ones written here
    assert _kp([[2, 1]], [1], (-3, 1)).shift == 2
    assert _kp([[1, 1]], [1], (0, 4)).shift == 0
    assert _kp([[2]], [1], (-4,)).shift == 2
    assert _kp([[2]], [1], (-5,)).shift == 3  # ceil, not floor


def test_nonneg_cost_shift_is_minimal():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        for j in range(n):
            A[rng.randrange(m)][j] = max(1, A[rng.randrange(m)][j])
        c = [rng.randint(-8, 8) for _ in range(n)]
        kp = _kp(A, [1] * m, c)
        assert kp.reduced.column_map == tuple(range(n))
        k = kp.shift
        sums = [sum(row[j] for row in A) for j in range(n)]
        assert all(cj + k * sj >= 0 for cj, sj in zip(c, sums))
        if k > 0:
            assert any(cj + (k - 1) * sj < 0 for cj, sj in zip(c, sums))


def test_objective_upper_bound():
    assert _kp([[1, 1, 0], [0, 1, 1]], [1, 1], [1, 1, 1]).upper_bound == 3
    assert _kp([[1, 1], [1, 2]], [2, 3], [2, -1]).upper_bound == 4
    assert _kp([[1, 1]], [5], [-2, -3]).upper_bound == 0


def test_objective_upper_bound_dominates_every_feasible_value():
    rng = random.Random(77)
    for _ in range(60):
        m = rng.randint(1, 2)
        n = rng.randint(1, 3)
        A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        for j in range(n):
            A[rng.randrange(m)][j] = max(1, A[rng.randrange(m)][j])
        b = [rng.randint(0, 5) for _ in range(m)]
        c = [rng.randint(-5, 5) for _ in range(n)]
        # every column has a positive entry, so the box of the given
        # instance is finite; a variable that reduce drops is 0 wherever
        # Ax = b holds
        bound = _kp(A, b, c).upper_bound
        upper = box_bounds(IPInstance.from_rows(A, b, c))
        for x in product(*(range(u + 1) for u in upper)):
            if all(
                sum(A[i][j] * x[j] for j in range(n)) == b[i] for i in range(m)
            ):
                assert sum(cj * xj for cj, xj in zip(c, x)) <= bound


def test_penalty_weight():
    # H = L + k * (sum(b) + 1) + 1: L = 4, k = 2, sum(b) = 5
    kp = _kp([[1, 1], [1, 2]], [2, 3], [2, -6])
    assert (kp.upper_bound, kp.shift) == (4, 2)
    assert kp.penalty == 4 + 2 * 6 + 1
    assert _kp([[1, 1, 0], [0, 1, 1]], [1, 1], [1, 1, 1]).penalty == 4
    # all-zero rhs with a needed shift: still strictly above the shift
    kp = _kp([[1], [1]], [0, 0], [-10])
    assert (kp.upper_bound, kp.shift, kp.penalty) == (0, 5, 6)
    # always exceeds the shift, so penalized costs stay nonnegative
    for A, b, c in [
        ([[1]], [0], [0]),
        ([[1], [1]], [0, 0], [-14]),
        ([[1, 1], [0, 1]], [1, 4], [2, -6]),
    ]:
        kp = _kp(A, b, c)
        assert kp.penalty >= kp.shift + 1


def test_build_knapsack_zero_rhs_negative_cost():
    kp = build_knapsack(IPInstance.from_rows([[1]], [0], [-5]))
    assert kp.rhs == 0
    assert all(cv >= 0 for cv in kp.costs)


def test_vertex_lower_bound():
    assert vertex_lower_bound((1, 0, 1)) == 3
    assert vertex_lower_bound((0, 0)) == 0
    assert vertex_lower_bound(()) == 0
    assert vertex_lower_bound((4, 4, 4, 4)) == 624
    with pytest.raises(ValidationError):
        vertex_lower_bound((1, -1))


def test_build_knapsack_demo():
    kp = build_knapsack(IPInstance.from_rows([[1, 1, 0], [0, 1, 1]], [1, 1], [1, 1, 1]))
    assert kp.weights == (1, 3, 2)
    assert kp.rhs == 3
    assert kp.upper_bound == 3
    assert kp.shift == 0
    assert kp.penalty == 4
    assert kp.costs == (5, 9, 5)
    assert kp.reduced.column_map == (0, 1, 2)


def test_build_knapsack_single_row():
    kp = build_knapsack(IPInstance.from_rows([[2, 3]], [6], [0, 0]))
    assert kp.weights == (2, 3)
    assert kp.rhs == 6
    assert kp.penalty == 1
    assert kp.costs == (2, 3)


def test_build_knapsack_requires_min_sense():
    message = "build_knapsack requires a minimize-canonical instance"
    with pytest.raises(ValidationError, match=message):
        build_knapsack(IPInstance.from_rows([[1]], [1], [1], sense="max"))
    # the row stage takes either sense; the penalty stage refuses the row
    row = aggregate_row(IPInstance.from_rows([[1, 2]], [3], [1, -1], sense="max"))
    assert (row.weights, row.rhs) == ((1, 2), 3)
    with pytest.raises(ValidationError) as caught:
        penalize(row)
    assert str(caught.value) == message


def test_build_knapsack_is_the_penalty_stage_over_the_row_stage():
    rng = random.Random(2828)
    seen = {"zero rhs row": 0, "zero column": 0, "negative cost": 0}
    for _ in range(300):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = [[rng.choice((0, 0, 1, 2, 3)) for _ in range(n)] for _ in range(m)]
        b = [rng.choice((0, 1, 2, 4, 7)) for _ in range(m)]
        c = [rng.randint(-6, 6) for _ in range(n)]
        inst = IPInstance.from_rows(A, b, c)
        row = aggregate_row(inst)
        assert isinstance(row, AggregatedRow)
        red = reduce(inst)
        assert row.reduced == red
        assert row.multipliers == aggregation_vector(red.inner.b)
        assert (row.weights, row.rhs) == aggregate(red.inner.A, red.inner.b)
        assert build_knapsack(inst) == penalize(row)
        seen["zero rhs row"] += 0 in b
        seen["zero column"] += bool(red.zero_columns)
        seen["negative cost"] += min(c) < 0
    assert min(seen.values()) > 30, seen


def test_build_knapsack_leaves_unboundedness_to_the_solver():
    # a negative-cost zero column makes the program unbounded only if the
    # kept rows are feasible, which the table decides: 2 x0 = 2 is, 2 x0 = 3
    # is not, and building passes on both
    for b in (2, 3):
        kp = build_knapsack(IPInstance.from_rows([[2, 0]], [b], [0, -1]))
        assert kp.reduced.zero_columns == (1,)
        assert kp.reduced.column_map == (0,)
        assert (kp.weights, kp.rhs, kp.costs) == ((2,), b, (2,))


def test_build_knapsack_invariants_on_random_instances():
    rng = random.Random(1234)
    for _ in range(100):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 4) for _ in range(m)]
        c = [rng.randint(-5, 5) for _ in range(n)]
        kp = build_knapsack(IPInstance.from_rows(A, b, c))
        product = 1
        for bi in b:
            product *= bi + 1
        assert kp.rhs == product - 1
        assert all(w > 0 for w in kp.weights)
        assert all(cv >= 0 for cv in kp.costs)
        assert kp.penalty >= kp.upper_bound + 1
