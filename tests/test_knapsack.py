from __future__ import annotations

import random
import sys

import pytest

from knapagg import knapsack
from knapagg import (
    BUDGET_EXCEEDED,
    INFEASIBLE,
    OPTIMAL,
    IPInstance,
    KnapsackInstance,
    SolverBudget,
    UnboundedProblem,
    ValidationError,
    build_knapsack,
    evaluate,
    reduce,
    solve_knapsack,
    solve_original,
)


def _kp(weights, rhs, costs):
    # wrap a bare equality knapsack in the instance plumbing
    shell = IPInstance.from_rows([list(weights)], [rhs], list(costs))
    return KnapsackInstance(
        weights=tuple(weights),
        rhs=rhs,
        costs=tuple(costs),
        upper_bound=0,
        shift=0,
        penalty=0,
        reduced=reduce(shell),
    )


def test_dp_demo():
    sol = solve_knapsack(_kp((1, 3, 2), 3, (5, 9, 5)))
    assert sol.status == OPTIMAL
    assert sol.x == (0, 1, 0)
    assert sol.value == 9


def test_dp_breaks_ties_toward_smaller_index():
    sol = solve_knapsack(_kp((4, 7), 11, (1, 1)))
    assert sol.status == OPTIMAL
    assert sol.x == (1, 1)
    assert sol.value == 2


def test_dp_infeasible():
    sol = solve_knapsack(_kp((2, 3), 1, (0, 0)))
    assert sol.status == INFEASIBLE
    assert sol.x is None and sol.value is None


def test_dp_zero_rhs():
    sol = solve_knapsack(_kp((2, 5), 0, (1, 1)))
    assert sol.status == OPTIMAL
    assert sol.x == (0, 0)
    assert sol.value == 0


def test_dp_rhs_budget():
    sol = solve_knapsack(_kp((1,), 100, (1,)), SolverBudget(max_rhs=99))
    assert sol.status == BUDGET_EXCEEDED
    assert "prod(b_i + 1) - 1" in sol.detail
    assert "100" in sol.detail


def test_dp_cell_budget():
    kp = _kp((1, 2, 3), 100, (0, 0, 0))
    sol = solve_knapsack(kp, SolverBudget(max_cells=200))
    assert sol.status == BUDGET_EXCEEDED
    # three columns over the values 0..100 make 3 * 101 = 303 cells
    assert solve_knapsack(kp, SolverBudget(max_cells=303)).status == OPTIMAL
    sol = solve_knapsack(kp, SolverBudget(max_cells=302))
    assert sol.status == BUDGET_EXCEEDED
    assert "3 x 101 = 303 cells" in sol.detail


def test_budget_message_names_an_rhs_past_the_digit_limit_by_bits():
    # the aggregated rhs (10**2200 + 1)**2 - 1 has 4,401 digits, past the
    # default limit of 4,300 on decimal integer strings
    big = 10**2200
    inst = IPInstance.from_rows([[1, 0], [0, 1]], [big, big], [1, 1])
    sol = solve_original(inst)
    assert sol.status == BUDGET_EXCEEDED
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and limit < 4401:
        rhs_bits = ((big + 1) ** 2 - 1).bit_length()
        assert f"aggregated rhs <{rhs_bits}-bit integer> = prod(b_i + 1) - 1" in sol.detail


def test_budget_validation():
    with pytest.raises(ValidationError):
        SolverBudget(max_rhs=0)


def test_dp_is_deterministic():
    kp = _kp((3, 5, 7, 2), 143, (4, 1, 9, 3))
    first = solve_knapsack(kp)
    second = solve_knapsack(kp)
    assert first == second


def test_dp_matches_enumeration_on_random_instances():
    rng = random.Random(2718)
    for _ in range(150):
        n = rng.randint(1, 4)
        weights = [rng.randint(1, 9) for _ in range(n)]
        rhs = rng.randint(0, 60)
        costs = [rng.randint(0, 12) for _ in range(n)]
        sol = solve_knapsack(_kp(weights, rhs, costs))
        best = None
        stack = [((), rhs)]
        for j in range(n):
            nxt = []
            for prefix, rem in stack:
                for v in range(rem // weights[j] + 1):
                    nxt.append((prefix + (v,), rem - v * weights[j]))
            stack = nxt
        for x, rem in stack:
            if rem == 0:
                val = sum(cj * xj for cj, xj in zip(costs, x))
                if best is None or val < best:
                    best = val
        if best is None:
            assert sol.status == INFEASIBLE
        else:
            assert sol.status == OPTIMAL
            assert sol.value == best
            assert sum(w * v for w, v in zip(weights, sol.x)) == rhs


def test_solve_original_demo():
    inst = IPInstance.from_rows([[1, 1, 0], [0, 1, 1]], [1, 1], [1, 1, 1])
    sol = solve_original(inst)
    assert sol.status == OPTIMAL
    assert sol.x == (0, 1, 0)
    assert sol.objective == 1
    assert sol.knapsack is not None and sol.knapsack.rhs == 3


def test_solve_original_certifies_infeasibility():
    inst = IPInstance.from_rows([[1, 0], [0, 2]], [1, 1], [0, 0])
    sol = solve_original(inst)
    assert sol.status == INFEASIBLE
    assert sol.residual == (2, -1)
    assert sol.x is None


def test_solve_original_handles_empty_aggregated_set():
    inst = IPInstance.from_rows([[2, 4]], [3], [1, 1])
    sol = solve_original(inst)
    assert sol.status == INFEASIBLE


def test_infeasible_table_has_one_wording():
    # 2 x0 + 4 x1 = 3 has no solution: the table says so, and solve_original
    # passes its words on as they are
    inst = IPInstance.from_rows([[2, 4]], [3], [1, 1])
    table = solve_knapsack(build_knapsack(inst))
    sol = solve_original(inst)
    assert table.status == sol.status == INFEASIBLE
    assert table.detail == sol.detail == "aggregated knapsack has no solution"


def test_solve_original_maximize():
    inst = IPInstance.from_rows(
        [[1, 1, 0], [0, 1, 1]], [1, 1], [-1, -1, -1], sense="max"
    )
    sol = solve_original(inst)
    assert sol.status == OPTIMAL
    assert sol.x == (0, 1, 0)
    assert sol.objective == -1


def test_solve_original_maximize_prefers_large_values():
    inst = IPInstance.from_rows([[1, 1]], [4], [3, 1], sense="max")
    sol = solve_original(inst)
    assert sol.status == OPTIMAL
    assert sol.x == (4, 0)
    assert sol.objective == 12


def test_solve_original_zero_column_fixed_at_zero():
    inst = IPInstance.from_rows([[1, 0]], [2], [1, 4])
    sol = solve_original(inst)
    assert sol.status == OPTIMAL
    assert sol.x == (2, 0)
    assert sol.objective == 2


def test_solve_original_unbounded():
    with pytest.raises(UnboundedProblem):
        solve_original(IPInstance.from_rows([[1, 0]], [1], [0, -1]))


def test_solve_original_infeasible_beats_unbounded():
    # 2 x0 = 1 has no solution, so the negative-cost zero column is moot
    sol = solve_original(IPInstance.from_rows([[2, 0]], [1], [0, -1]))
    assert sol.status == INFEASIBLE and sol.x is None
    # here the table is feasible, and the lifted minimizer misses b
    sol = solve_original(IPInstance.from_rows([[1, 0, 0], [0, 2, 0]], [1, 1], [0, 0, -1]))
    assert sol.status == INFEASIBLE and sol.residual == (2, -1)
    # a maximized positive cost is a negative one once canonical
    with pytest.raises(UnboundedProblem, match="column 1 .* negative cost -2"):
        solve_original(IPInstance.from_rows([[3, 0]], [3], [0, 2], sense="max"))
    # over budget, feasibility is unknown, so is unboundedness
    inst = IPInstance.from_rows([[1, 0]], [1000], [0, -1])
    assert solve_original(inst, SolverBudget(max_rhs=10)).status == BUDGET_EXCEEDED


def test_solve_original_budget():
    inst = IPInstance.from_rows([[1]], [1000], [1])
    sol = solve_original(inst, SolverBudget(max_rhs=10))
    assert sol.status == BUDGET_EXCEEDED
    assert sol.x is None


def test_solve_original_all_columns_dropped():
    feasible = IPInstance.from_rows([[0, 0]], [0], [2, 3])
    sol = solve_original(feasible)
    assert sol.status == OPTIMAL
    assert sol.x == (0, 0)
    assert sol.objective == 0

    hopeless = IPInstance.from_rows([[0]], [3], [2])
    sol2 = solve_original(hopeless)
    assert sol2.status == INFEASIBLE


def test_solve_original_solution_is_always_feasible():
    rng = random.Random(665)
    seen_optimal = 0
    for _ in range(120):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 4) for _ in range(m)]
        c = [rng.randint(-5, 5) for _ in range(n)]
        inst = IPInstance.from_rows(A, b, c)
        try:
            sol = solve_original(inst)
        except UnboundedProblem:
            continue
        if sol.status == OPTIMAL:
            seen_optimal += 1
            ev = evaluate(inst, sol.x)
            assert ev.feasible
            assert ev.objective == sol.objective
    assert seen_optimal > 20


def test_knapsack_instance_validation():
    shell = IPInstance.from_rows([[1]], [1], [1])
    red = reduce(shell)
    with pytest.raises(ValidationError):
        KnapsackInstance((0,), 1, (1,), 0, 0, 0, red)
    with pytest.raises(ValidationError):
        KnapsackInstance((1,), -1, (1,), 0, 0, 0, red)
    with pytest.raises(ValidationError):
        KnapsackInstance((1,), 1, (-1,), 0, 0, 0, red)
    with pytest.raises(ValidationError):
        KnapsackInstance((1,), 1, (1, 2), 0, 0, 0, red)


def test_build_then_solve_agrees_with_direct_costs():
    # penalized DP value equals penalty * sum(b) + optimal objective here
    inst = IPInstance.from_rows([[1, 1, 0], [0, 1, 1]], [1, 1], [1, 1, 1])
    kp = build_knapsack(inst)
    sol = solve_knapsack(kp)
    assert sol.value == 9
    assert sol.value == kp.penalty * sum(inst.b) + 1


def test_solve_original_negative_costs_need_full_penalty_margin():
    # The feasible set is exactly {(0, 1)} with value 1.  The surrogate
    # also admits (1, 0), whose raw cost is -6; a penalty of L + k*sum(b)
    # + 1 = 6 would let that point win the table by one unit and the
    # pipeline would wrongly report infeasibility.  The extra shift unit
    # in the penalty keeps the feasible point strictly ahead.
    inst = IPInstance.from_rows([[3, 1], [0, 1]], [1, 1], [-6, 1])
    sol = solve_original(inst)
    assert sol.status == OPTIMAL
    assert sol.x == (0, 1)
    assert sol.objective == 1
    assert sol.knapsack.penalty == 1 + 2 * 3 + 1


def test_solve_original_zero_rhs_row_pins_variables():
    # Row one reads x1 + 3x2 + 3x3 = 0, pinning the first three variables;
    # without that reduction the aggregating weights degenerate to (1, 1)
    # and the surrogate can trade mass between the rows unnoticed.
    inst = IPInstance.from_rows(
        [[1, 3, 3, 0], [0, 0, 1, 1]], [0, 2], [-3, -4, 3, 0]
    )
    sol = solve_original(inst)
    assert sol.status == OPTIMAL
    assert sol.x == (0, 0, 0, 2)
    assert sol.objective == 0
    assert sol.knapsack.reduced.column_map == (3,)


def test_solve_original_zero_rhs_row_second_case():
    inst = IPInstance.from_rows(
        [[1, 3, 1, 0], [0, 2, 2, 1]], [0, 4], [-5, -2, 3, 5]
    )
    sol = solve_original(inst)
    assert sol.status == OPTIMAL
    assert sol.x == (0, 0, 0, 4)
    assert sol.objective == 20


def test_solve_original_zero_rhs_row_can_prove_infeasibility():
    # the zero row pins both variables, leaving x2 = 3 unreachable
    inst = IPInstance.from_rows([[1, 2], [1, 0]], [0, 3], [1, 1])
    sol = solve_original(inst)
    assert sol.status == INFEASIBLE


def test_solve_original_keeps_its_bookkeeping_in_original_coordinates():
    # column 1 is pinned by the zero row and column 2 is zero everywhere;
    # every map, the dropped list and the lift speak of the 4 columns given
    inst = IPInstance.from_rows([[1, 0, 0, 1], [0, 1, 0, 0]], [1, 0], [0, 0, 0, 1])
    sol = solve_original(inst)
    kp = sol.knapsack
    assert sol.status == OPTIMAL and sol.x == (1, 0, 0, 0)
    assert kp.reduced.column_map == (0, 3)
    assert kp.reduced.dropped == (1, 2)
    assert kp.reduced.zero_columns == (2,)
    assert kp.reduced.original_n == 4
    assert kp.reduced.lift(solve_knapsack(kp).x) == sol.x


def test_solve_original_all_pinned_keeps_the_original_width():
    inst = IPInstance.from_rows([[1], [1]], [2, 0], [1])
    sol = solve_original(inst)
    assert sol.status == INFEASIBLE
    assert sol.knapsack.reduced.original_n == 1
    assert sol.knapsack.reduced.column_map == ()
    assert sol.knapsack.reduced.lift(()) == (0,)


def _int64_agrees_with_python(weights, rhs, costs):
    """Run both fills directly; return the shared best[rhs] and point."""
    weights, costs = tuple(weights), tuple(costs)
    inf = knapsack._unreachable(costs, rhs)
    ref = knapsack._fill_python(weights, costs, rhs, inf)
    fast = knapsack._fill_int64(weights, costs, rhs, inf)
    assert list(fast) == ref
    if ref[rhs] == inf:
        return None, None
    x = knapsack._reconstruct(ref, weights, costs, rhs)
    assert knapsack._reconstruct(fast, weights, costs, rhs) == x
    assert sum(w * v for w, v in zip(weights, x)) == rhs
    assert sum(c * v for c, v in zip(costs, x)) == ref[rhs]
    return ref[rhs], x


def _reference_fill(weights, costs, rhs):
    """The value-by-value table, None where a value is unreachable."""
    best = [None] * (rhs + 1)
    best[0] = 0
    for v in range(1, rhs + 1):
        for w, c in zip(weights, costs):
            if w <= v and best[v - w] is not None:
                cand = best[v - w] + c
                if best[v] is None or cand < best[v]:
                    best[v] = cand
    return best


def _reference_point(best, weights, costs, rhs):
    """Back from rhs, the smallest column whose predecessor explains best[v]."""
    x = [0] * len(weights)
    v = rhs
    while v > 0:
        j = next(
            j
            for j, w in enumerate(weights)
            if w <= v and best[v - w] is not None and best[v - w] + costs[j] == best[v]
        )
        x[j] += 1
        v -= weights[j]
    return tuple(x)


def _surrogates():
    """Seeded (weights, rhs, costs) with every kind of table edge."""
    rng = random.Random(8128)
    yield (1,), 7, (5,)  # best[rhs] is exactly max(costs) * rhs
    yield (3, 1), 9, (0, 0)  # all-zero costs: every reachable entry is 0
    yield (5, 3), 7, (1, 1)  # 7 is no sum of 3s and 5s
    # reachability bitsets of rhs + 1 = 7, 8, 9, 63, 64, 65 bits; weights
    # with a common divisor leave values unreachable, and a column of
    # weight rhs visits one value or none
    edge = random.Random(1414)
    for rhs in (6, 7, 8, 62, 63, 64):
        yield (4, 6, rhs), rhs, (4, 7, 2 * rhs)
        yield (rhs, 3), rhs, (rhs + 1, 3)
        yield (9, 6, 15), rhs, tuple(edge.randint(0, 2**110) for _ in range(3))
    # more than 4,300 decimal digits of bitset, past the str() limit
    yield (12, 18, 45, 15_000), 15_000, tuple(edge.randint(0, 2**110) for _ in range(4))
    for _ in range(300):
        n = rng.randint(1, 6)
        rhs = rng.choice((0, 1, rng.randint(2, 50), rng.randint(51, 2000)))
        # weights may exceed rhs; without a unit weight values go unreachable
        weights = [rng.randint(1, rng.choice((3, 12, rhs + 5))) for _ in range(n)]
        bits = rng.choice((0, 1, 40, rng.randint(100, 120)))
        costs = [rng.randint(0, 2**bits) for _ in range(n)]
        if rng.random() < 0.2:
            costs = [rng.choice((0, max(costs))) for _ in costs]
        yield tuple(weights), rhs, tuple(costs)


def test_python_fill_matches_the_value_by_value_reference():
    try:
        import numpy
    except ImportError:
        numpy = None
    infeasible = multiple = int64 = 0
    for weights, rhs, costs in _surrogates():
        ref = _reference_fill(weights, costs, rhs)
        inf = knapsack._unreachable(costs, rhs)
        best = knapsack._fill_python(weights, costs, rhs, inf)
        assert best == [inf if v is None else v for v in ref]
        if numpy is not None and inf <= 1 << 62:
            assert list(knapsack._fill_int64(weights, costs, rhs, inf)) == best
            int64 += 1
        if ref[rhs] is None:
            infeasible += 1
            continue
        x = knapsack._reconstruct(best, weights, costs, rhs)
        assert x == _reference_point(ref, weights, costs, rhs)
        multiple += max(x) > 1
    assert infeasible > 30 and multiple > 100
    assert int64 > 100 or numpy is None


def _record_fills(monkeypatch):
    ran = []
    for name in ("_fill_python", "_fill_int64"):
        fill = getattr(knapsack, name)

        def spy(*args, _fill=fill, _name=name):
            ran.append(_name)
            return _fill(*args)

        monkeypatch.setattr(knapsack, name, spy)
    return ran


def test_int64_fill_matches_python_fill_on_random_surrogates():
    pytest.importorskip("numpy")
    rng = random.Random(4242)
    infeasible = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        rhs = rng.choice((0, 1, rng.randint(2, 40), rng.randint(41, 600)))
        # weights may exceed rhs; without a unit weight some values stay
        # unreachable, and costs run from zero to 40 bits
        weights = [rng.randint(1, rhs + 5) for _ in range(n)]
        bits = rng.choice((1, 8, 40))
        costs = [rng.randint(0, 2**bits) for _ in range(n)]
        value, _ = _int64_agrees_with_python(weights, rhs, costs)
        infeasible += value is None
    assert infeasible > 10


def test_int64_fill_edge_tables():
    pytest.importorskip("numpy")
    assert _int64_agrees_with_python((2, 5), 0, (1, 1)) == (0, (0, 0))
    assert _int64_agrees_with_python((7, 9), 5, (1, 1)) == (None, None)
    assert _int64_agrees_with_python((2, 4), 999, (3, 1)) == (None, None)
    assert _int64_agrees_with_python((4, 7), 11, (1, 1)) == (2, (1, 1))


def test_int64_fill_keeps_tie_rule_at_scale():
    pytest.importorskip("numpy")
    # narrow columns over a table of several blocks
    rhs = 2 * knapsack._BLOCK_VALUES + 11
    assert _int64_agrees_with_python((3, 5, 7), rhs, (1, 1, 1)) == (
        (rhs + 6) // 7,
        (1, 1, (rhs - 8) // 7),
    )
    # equal costs tie every combination with the same item count; costs
    # proportional to weights tie every combination at each value
    assert _int64_agrees_with_python((4, 7, 11, 28), 40_000, (1, 1, 1, 1)) == (
        1431,
        (0, 0, 4, 1427),
    )
    value, x = _int64_agrees_with_python((3, 5, 6, 10, 15), 50_001, (3, 5, 6, 10, 15))
    assert value == 50_001
    assert x == (16_667, 0, 0, 0, 0)


def _wide_surrogates():
    """Seeded (weights, rhs, costs) around the weight that switches kernels."""
    rng = random.Random(1729)
    t = knapsack._ROW_FILL_WEIGHT
    for wide in (t - 1, t, t + 1, 2 * t + 3):
        for rows in (1, 2, 3, 5):
            # full rows only, one value short of them, or a partial last row
            for rhs in (rows * wide - 1, rows * wide - 2, rows * wide + rng.randint(1, wide - 1)):
                narrow = [rng.randint(1, 40) for _ in range(rng.randint(0, 2))]
                unit = [1] if rng.random() < 0.5 else []
                beyond = [rhs + rng.randint(1, 50)] if rng.random() < 0.3 else []
                weights = [wide, *narrow, *unit, *beyond]
                rng.shuffle(weights)
                kind = rng.choice(("random", "zero", "equal", "proportional"))
                if kind == "random":
                    costs = [rng.randint(0, 2**40) for _ in weights]
                elif kind == "zero":
                    costs = [0] * len(weights)
                elif kind == "equal":
                    costs = [rng.randint(0, 9)] * len(weights)
                else:
                    costs = list(weights)
                yield tuple(weights), rhs, tuple(costs)


def _one_column(best, w, c):
    """best[v] = min(best[v], best[v - w] + c) for v ascending, on a copy."""
    best = list(best)
    for v in range(w, len(best)):
        best[v] = min(best[v], best[v - w] + c)
    return best


@pytest.mark.parametrize("block", [None, 1024])
def test_int64_kernels_match_python_fill_around_the_row_weight(monkeypatch, block):
    np = pytest.importorskip("numpy")
    if block is not None:
        # blocks of a few rows: narrow columns cross many block boundaries,
        # and a last block can be shorter than one row
        monkeypatch.setattr(knapsack, "_BLOCK_VALUES", block)
    ran = {"_min_by_rows": 0, "_min_by_residues": 0}
    unreachable = improved = 0
    for weights, rhs, costs in _wide_surrogates():
        inf = knapsack._unreachable(costs, rhs)
        for j, (w, c) in enumerate(zip(weights, costs)):
            if w > rhs:
                continue
            # the table the columns before j leave, empty for j = 0, then
            # column j by the kernel _fill_int64 picks for its weight,
            # whether or not the fill would skip it
            table = knapsack._fill_python(weights[:j], costs[:j], rhs, inf)
            want = _one_column(table, w, c)
            name = "_min_by_rows" if w >= knapsack._ROW_FILL_WEIGHT else "_min_by_residues"
            got = np.array(table, dtype=np.int64)
            getattr(knapsack, name)(got, w, c)
            assert got.tolist() == want
            ran[name] += 1
            improved += want != table
            unreachable += inf in want
    assert unreachable > 5 and improved > 20
    assert ran["_min_by_rows"] > 20 and ran["_min_by_residues"] > 50


def _index_order_fill(weights, costs, rhs, inf):
    """The column recurrence in index order: no reordering, closed form or skip."""
    best = [0] + [inf] * rhs
    for w, c in zip(weights, costs):
        best = _one_column(best, w, c)
    return best


def _ordered_surrogates():
    """Seeded (weights, rhs, costs) with the columns the fill order meets."""
    rng = random.Random(6174)
    yield (), 5, ()  # no columns
    yield (), 0, ()
    yield (3, 2), 0, (1, 1)  # rhs = 0
    yield (9, 12), 8, (0, 1)  # every weight beyond rhs
    yield (4, 4, 4), 12, (3, 2, 3)  # duplicate weights
    yield (2, 4, 6), 12, (1, 2, 3)  # equal ratios
    for _ in range(300):
        rhs = rng.choice((0, 1, rng.randint(2, 60), rng.randint(61, 3000)))
        base = [(rng.randint(1, 12), rng.randint(0, 30)) for _ in range(rng.randint(1, 3))]
        columns = []
        for _ in range(rng.randint(1, 7)):
            w, c = rng.choice(base)
            kind = rng.randrange(5)
            if kind == 0:
                columns.append((w, c))  # a duplicate column
            elif kind == 1:
                k = rng.randint(2, 5)
                columns.append((k * w, k * c))  # an equal ratio
            elif kind == 2:
                columns.append((w, 0))  # a zero cost
            elif kind == 3:
                columns.append((rhs + rng.randint(1, 9), c))  # beyond rhs
            else:
                bits = rng.choice((5, 40, 100))
                columns.append((rng.randint(1, 40), rng.randint(0, 2**bits)))
        yield tuple(w for w, _ in columns), rhs, tuple(c for _, c in columns)


def test_both_fills_match_the_index_order_recurrence():
    try:
        import numpy
    except ImportError:
        numpy = None
    reordered = skipped = feasible = int64 = 0
    for weights, rhs, costs in _ordered_surrogates():
        inf = knapsack._unreachable(costs, rhs)
        ref = _index_order_fill(weights, costs, rhs, inf)
        fills = [knapsack._fill_python(weights, costs, rhs, inf)]
        if numpy is not None and inf <= 1 << 62:
            fills.append(list(knapsack._fill_int64(weights, costs, rhs, inf)))
            int64 += 1
        order = knapsack._fill_order(weights, costs, rhs)
        reordered += order != [(w, c) for w, c in zip(weights, costs) if w <= rhs]
        # a column is skipped when the ones before it reach w at cost <= c
        skipped += any(
            _index_order_fill(*zip(*order[:i]), rhs, inf)[w] <= c
            for i, (w, c) in enumerate(order)
            if i
        )
        for best in fills:
            assert best == ref
        if ref[rhs] == inf:
            continue
        feasible += 1
        x = knapsack._reconstruct(ref, weights, costs, rhs)
        for best in fills:
            assert knapsack._reconstruct(best, weights, costs, rhs) == x
    assert reordered > 60 and skipped > 60 and feasible > 100
    assert int64 > 100 or numpy is None


def test_fill_order_compares_cost_per_weight_exactly():
    # (k + 1) / 1 and (3k + 2) / 3 differ by 1/3 and round to the same
    # float, which would put the lighter column first
    k = 2**60
    assert float(k + 1) == (3 * k + 2) / 3
    order = knapsack._fill_order((1, 3, 7), (k + 1, 3 * k + 2, 0), 7)
    assert order == [(7, 0), (3, 3 * k + 2), (1, k + 1)]
    # equal ratios by weight, equal columns in index order, 9 > rhs left out
    assert knapsack._fill_order((4, 2, 9, 2), (2, 1, 0, 1), 8) == [(2, 1), (2, 1), (4, 2)]


def test_a_dominated_column_runs_no_kernel_and_no_loop(monkeypatch):
    # (3, 1) goes first and writes best[3k] = k.  (6, 2) has its ratio and
    # (999, 400) reaches 999 = 3 * 333 at no less than 333: both are
    # skipped.  1000 and 4 are no multiples of 3, so (1000, 400) and
    # (4, 5) each run once.
    weights, costs, rhs = (4, 6, 999, 3, 1000), (5, 2, 400, 1, 400), 2000
    inf = knapsack._unreachable(costs, rhs)
    assert knapsack._fill_order(weights, costs, rhs) == [
        (3, 1), (6, 2), (1000, 400), (999, 400), (4, 5)
    ]
    ref = _index_order_fill(weights, costs, rhs, inf)
    loops = []
    compress = knapsack.compress

    def spy_compress(values, flags):
        # one flag per predecessor 0 ... rhs - w
        loops.append(rhs + 1 - len(flags))
        return compress(values, flags)

    monkeypatch.setattr(knapsack, "compress", spy_compress)
    assert knapsack._fill_python(weights, costs, rhs, inf) == ref
    assert loops == [1000, 4]
    try:
        import numpy  # noqa: F401
    except ImportError:
        return  # the pure-Python leg has no int64 fill to spy on
    kernels = []
    for name in ("_min_by_rows", "_min_by_residues"):
        kernel = getattr(knapsack, name)

        def spy(best, w, c, _kernel=kernel, _name=name):
            kernels.append((_name, w))
            return _kernel(best, w, c)

        monkeypatch.setattr(knapsack, name, spy)
    assert list(knapsack._fill_int64(weights, costs, rhs, inf)) == ref
    assert kernels == [("_min_by_rows", 1000), ("_min_by_residues", 4)]


def test_a_column_visits_only_values_with_a_reachable_predecessor(monkeypatch):
    # weights with common factors: after (4, 4) only multiples of 4 are
    # reached, after (6, 7) every even value but 2, and no column is
    # dominated, so (6, 7) and (9, 11) both run
    weights, costs, rhs = (9, 4, 6), (11, 4, 7), 500
    inf = knapsack._unreachable(costs, rhs)
    order = knapsack._fill_order(weights, costs, rhs)
    assert order == [(4, 4), (6, 7), (9, 11)]
    reach, expected = {0}, []
    for i, (w, _) in enumerate(order):
        for u in range(rhs + 1 - w):
            if u in reach:
                reach.add(u + w)
        if i:
            expected.append(sum(v - w in reach for v in range(w, rhs + 1)))
    visits = []
    compress = knapsack.compress

    def spy_compress(values, flags):
        visits.append(0)
        for v in compress(values, flags):
            visits[-1] += 1
            yield v

    monkeypatch.setattr(knapsack, "compress", spy_compress)
    assert knapsack._fill_python(weights, costs, rhs, inf) == _index_order_fill(
        weights, costs, rhs, inf
    )
    assert visits == expected
    # the column of weight 6 visits the even values from 6 to rhs but 8,
    # since 2 is never reached: half of its values
    assert expected[0] == (rhs - 6) // 2


@pytest.mark.parametrize(
    ("cost", "path"), [(2**48 - 1, "_fill_int64"), (2**48, "_fill_python")]
)
def test_overflow_proof_boundary_on_a_wide_column(monkeypatch, cost, path):
    pytest.importorskip("numpy")
    # rhs + 1 = 2**14, so the sentinel is 2**62 - 2**14 + 1 or 2**62 + 1.
    # The cheap column of weight 3 goes first and reaches only multiples of
    # 3, so the wide column runs row by row, and every value it cannot hit
    # adds a cost to the sentinel.  Value 1 stays unreachable to the end.
    rhs = 2**14 - 1
    wide = knapsack._ROW_FILL_WEIGHT + 1
    weights = (wide, 3, 2)
    costs = (cost, 1, cost)
    inf = knapsack._unreachable(costs, rhs)
    assert inf == cost * 2**14 + 1
    ran = _record_fills(monkeypatch)
    sol = solve_knapsack(_kp(weights, rhs, costs))
    assert ran == [path]
    monkeypatch.undo()
    ref = knapsack._fill_python(weights, costs, rhs, inf)
    assert ref[1] == inf
    assert sol.value == ref[rhs]
    assert sol.x == knapsack._reconstruct(ref, weights, costs, rhs)
    if path == "_fill_int64":
        rows = []
        min_by_rows = knapsack._min_by_rows
        monkeypatch.setattr(
            knapsack, "_min_by_rows", lambda best, w, c: rows.append(w) or min_by_rows(best, w, c)
        )
        assert list(knapsack._fill_int64(weights, costs, rhs, inf)) == ref
        assert rows == [wide]
        # a sentinel of exactly 2**62 is still inside the proof
        top = 1 << 62
        ref = knapsack._fill_python(weights, costs, rhs, top)
        assert list(knapsack._fill_int64(weights, costs, rhs, top)) == ref


def test_int64_fill_runs_above_the_threshold(monkeypatch):
    pytest.importorskip("numpy")
    rng = random.Random(99)
    rhs = knapsack._NUMPY_COLD_CELLS // 6
    weights = (1, *(rng.randint(2, rhs) for _ in range(5)))
    costs = tuple(rng.randint(0, 2**31) for _ in range(6))
    kp = _kp(weights, rhs, costs)
    ran = _record_fills(monkeypatch)
    sol = solve_knapsack(kp)
    assert ran == ["_fill_int64"]
    ref = knapsack._fill_python(weights, costs, rhs, knapsack._unreachable(costs, rhs))
    assert sol.value == ref[rhs]
    assert sol.x == knapsack._reconstruct(ref, weights, costs, rhs)


@pytest.mark.parametrize(
    ("cost", "path"), [(2**48 - 1, "_fill_int64"), (2**48, "_fill_python")]
)
def test_overflow_proof_boundary(monkeypatch, cost, path):
    pytest.importorskip("numpy")
    # rhs + 1 = 2**14, so the sentinel max(costs) * (rhs + 1) + 1 is
    # 2**62 - 2**14 + 1 or 2**62 + 1.  Both columns tie everywhere, so the
    # tie rule fills the first one up to a value just under 2**62.
    rhs = 2**14 - 1
    kp = _kp((1, 1), rhs, (cost, cost))
    assert (knapsack._unreachable(kp.costs, rhs) <= 1 << 62) == (path == "_fill_int64")
    ran = _record_fills(monkeypatch)
    sol = solve_knapsack(kp)
    assert ran == [path]
    assert sol.status == OPTIMAL
    assert sol.value == cost * rhs
    assert sol.x == (rhs, 0)


def test_solve_original_without_numpy(monkeypatch):
    # aggregated rhs 551**2 - 1 over five columns: above the size at which
    # a process without numpy would import it
    inst = IPInstance.from_rows(
        [[1, 0, 1, 2, 0], [0, 1, 1, 1, 3]], [550, 550], [2, 2, 3, 5, 7]
    )
    assert 5 * 551**2 >= knapsack._NUMPY_COLD_CELLS
    usual = solve_original(inst)
    monkeypatch.setitem(sys.modules, "numpy", None)
    ran = _record_fills(monkeypatch)
    blocked = solve_original(inst)
    assert ran == ["_fill_python"]
    assert blocked == usual
    assert blocked.status == OPTIMAL
    assert evaluate(inst, blocked.x).feasible
