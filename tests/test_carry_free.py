"""A second, independent solver for small programs, against solve_original.

The carry-free dynamic program works on the rows as given.  Its state is a
residual vector r with 0 <= r <= b entrywise, and best[r] is the least raw
cost of an x >= 0 with A x = r over the columns that are not all zero.
Such a column is nonnegative with a positive entry, so r minus the column
comes before r in lexicographic order, and one pass over the states in that
order fills the table, negative costs included.  It takes no penalty, no
aggregation and no row or column reduction, so it shares no code with the
pipeline it checks.  An all-zero column is decided apart: at a cost >= 0 it
stays at zero, and at a negative cost the program is unbounded once the
other columns reach b.  A maximize program is solved as min -c.
"""

from __future__ import annotations

import random
from itertools import product
from operator import sub

import pytest

from knapagg import IPInstance, UnboundedProblem, solve_original


def _carry_free(inst: IPInstance) -> tuple[str, int | None]:
    sign = 1 if inst.sense == "min" else -1
    columns = list(zip(*inst.A))
    moves = [(col, sign * cj) for col, cj in zip(columns, inst.c) if any(col)]
    best: dict[tuple[int, ...], int] = {}
    for r in product(*(range(bi + 1) for bi in inst.b)):
        costs = [] if any(r) else [0]
        for col, cj in moves:
            before = best.get(tuple(map(sub, r, col)))
            if before is not None:
                costs.append(before + cj)
        if costs:
            best[r] = min(costs)
    if inst.b not in best:
        return "infeasible", None
    if any(sign * cj < 0 for col, cj in zip(columns, inst.c) if not any(col)):
        return "unbounded", None
    return "optimal", sign * best[inst.b]


def _outcome(inst: IPInstance) -> tuple[str, int | None]:
    try:
        sol = solve_original(inst)
    except UnboundedProblem:
        return "unbounded", None
    return sol.status, sol.objective


COSTS = [(4, -3), (-2, -5), (0, 7)]


def test_every_two_by_two_program_agrees():
    # A in {0,1,2}^(2x2), b in {0..4}^2: zero rows, zero columns, equal
    # columns and both senses, each under every cost vector
    seen = set()
    for entries in product(range(3), repeat=4):
        A = (entries[:2], entries[2:])
        for b in product(range(5), repeat=2):
            for c, sense in product(COSTS, ("min", "max")):
                inst = IPInstance(A, b, c, sense)
                want = _carry_free(inst)
                assert _outcome(inst) == want, inst
                seen.add(want[0])
    assert seen == {"optimal", "infeasible", "unbounded"}


def _planted(rng: random.Random, states: int) -> IPInstance:
    """2-3 rows with prod(b_i + 1) near states, feasible by construction.

    Three random columns (entries 0-3) take part of b at a planted point,
    and one unit column per row takes the rest; costs may be negative.
    """
    m = rng.randint(2, 3)
    side = round(states ** (1 / m))
    b = [rng.randint(side // 2, side + side // 2) for _ in range(m)]
    cols, rest = [], list(b)
    for _ in range(3):
        col = [rng.randint(0, 3) for _ in range(m)]
        col[rng.randrange(m)] = rng.randint(1, 3)
        v = rng.randint(0, min(rest[i] // col[i] for i in range(m) if col[i]))
        rest = [ri - v * ci for ri, ci in zip(rest, col)]
        cols.append(col)
    cols += [[int(i == k) for i in range(m)] for k in range(m)]
    rng.shuffle(cols)
    A = [[col[i] for col in cols] for i in range(m)]
    c = [rng.randint(-9, 30) for _ in cols]
    return IPInstance.from_rows(A, b, c, rng.choice(("min", "max")))


@pytest.mark.parametrize("states", [10**2, 10**3, 10**4])
def test_planted_programs_agree(states):
    rng = random.Random(f"carry-free:{states}")
    for _ in range(4):
        inst = _planted(rng, states)
        want = _carry_free(inst)
        assert want[0] == "optimal"
        assert _outcome(inst) == want, inst
