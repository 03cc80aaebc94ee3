"""Metamorphic relations of solve_original, which need no second solver.

Each transformation below keeps the optimum of the program, so it must keep
the status and the objective solve_original reports; UnboundedProblem
counts as a status.  The point may differ on ties, so it is not compared.

- Permuting the rows changes every aggregated weight, but not
  prod(b_i + 1) - 1, the penalty H or the optimum.
- Permuting the columns permutes the surrogate's columns.
- A duplicate of a column at a worse cost is never needed: moving its mass
  to the original column keeps Ax = b and does not worsen the objective.
- max c.x is -(min -c.x), at the same points.
- Appending the sum of two rows, A_i + A_k = b_i + b_k, keeps the feasible
  set but changes b, the aggregated rhs and every weight after it.

The instances come from seeded generators: tiny ones shaped like the
benchmark's mixed CLI workload (zero columns, zero right-hand sides, both
senses), and planted feasible 2-3 row ones whose aggregated rhs runs to
10**5, so the relations also reach tables brute force cannot.
"""

from __future__ import annotations

import math
import random

import pytest

from knapagg import IPInstance, UnboundedProblem, solve_original


def _outcome(inst: IPInstance) -> tuple[str, int | None]:
    try:
        sol = solve_original(inst)
    except UnboundedProblem:
        return "unbounded", None
    return sol.status, sol.objective


def _tiny(rng: random.Random) -> IPInstance:
    """m 1-3, n 2-6, A 0-3 with some zero columns, b 0-8, either sense."""
    m, n = rng.randint(1, 3), rng.randint(2, 6)
    A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
    for j in range(n):
        if rng.random() < 0.15:
            for row in A:
                row[j] = 0
    b = [rng.randint(0, 8) for _ in range(m)]
    c = [rng.randint(-5, 9) for _ in range(n)]
    return IPInstance.from_rows(A, b, c, rng.choice(("min", "max")))


def _planted(rng: random.Random, rhs_target: int) -> IPInstance:
    """2-3 rows with prod(b_i + 1) near rhs_target and a planted point.

    Four random columns (entries 0-3) take part of b and one unit column
    per row the rest, so the program is feasible; costs may be negative.
    """
    m = rng.randint(2, 3)
    base = rhs_target ** (1 / m)
    factors = [max(2, round(base * rng.uniform(0.8, 1.25))) for _ in range(m - 1)]
    factors.append(max(2, round(rhs_target / math.prod(factors))))
    b = [f - 1 for f in factors]
    cols, rem = [], list(b)
    for _ in range(4):
        col = [rng.randint(0, 3) for _ in range(m)]
        if not any(col):
            col[rng.randrange(m)] = 1
        v = rng.randint(0, min(rem[i] // col[i] for i in range(m) if col[i]) // 2)
        rem = [rem[i] - v * col[i] for i in range(m)]
        cols.append(col)
    cols += [[int(r == i) for r in range(m)] for i in range(m)]
    rng.shuffle(cols)
    A = [[col[i] for col in cols] for i in range(m)]
    c = [rng.randint(-20, 60) for _ in cols]
    return IPInstance.from_rows(A, b, c, rng.choice(("min", "max")))


def _permute_rows(inst: IPInstance, rng: random.Random) -> IPInstance:
    order = list(range(inst.m))
    rng.shuffle(order)
    return IPInstance.from_rows(
        [inst.A[i] for i in order], [inst.b[i] for i in order], inst.c, inst.sense
    )


def _permute_columns(inst: IPInstance, rng: random.Random) -> IPInstance:
    order = list(range(inst.n))
    rng.shuffle(order)
    A = [[row[j] for j in order] for row in inst.A]
    return IPInstance.from_rows(A, inst.b, [inst.c[j] for j in order], inst.sense)


def _worse_duplicate(inst: IPInstance, rng: random.Random) -> IPInstance:
    j = rng.randrange(inst.n)
    worse = rng.randint(1, 9) * (1 if inst.sense == "min" else -1)
    A = [list(row) + [row[j]] for row in inst.A]
    return IPInstance.from_rows(A, inst.b, list(inst.c) + [inst.c[j] + worse], inst.sense)


def _redundant_row(inst: IPInstance, rng: random.Random) -> IPInstance:
    i, k = rng.randrange(inst.m), rng.randrange(inst.m)
    row = tuple(u + v for u, v in zip(inst.A[i], inst.A[k]))
    return IPInstance(inst.A + (row,), inst.b + (inst.b[i] + inst.b[k],), inst.c, inst.sense)


RELATIONS = [_permute_rows, _permute_columns, _worse_duplicate]


def _check_relations(inst: IPInstance, rng: random.Random) -> None:
    want = _outcome(inst)
    for relation in RELATIONS:
        changed = relation(inst, rng)
        assert _outcome(changed) == want, (relation.__name__, inst, changed)
    flipped_sense = "min" if inst.sense == "max" else "max"
    flipped = IPInstance(inst.A, inst.b, tuple(-v for v in inst.c), flipped_sense)
    status, objective = _outcome(flipped)
    assert status == want[0], ("sense", inst)
    assert objective == (None if want[1] is None else -want[1]), ("sense", inst)


def test_relations_hold_on_tiny_instances():
    rng = random.Random(20261019)
    seen = set()
    for _ in range(600):
        inst = _tiny(rng)
        seen.add(_outcome(inst)[0])
        _check_relations(inst, rng)
    # the draw reaches every status a tiny instance can have
    assert seen == {"optimal", "infeasible", "unbounded"}


@pytest.mark.parametrize("rhs_target", [10**3, 10**4, 3 * 10**4, 10**5])
def test_relations_hold_on_planted_instances(rhs_target):
    rng = random.Random(f"planted:{rhs_target}")
    for _ in range(2):
        inst = _planted(rng, rhs_target)
        assert _outcome(inst)[0] == "optimal"
        _check_relations(inst, rng)


def test_a_redundant_row_keeps_the_optimum():
    # the sum row's rhs multiplies prod(b_i + 1), so the instances are drawn
    # small enough that the changed one still aggregates to at most 10**5
    rng = random.Random(20261020)
    instances = [_tiny(rng) for _ in range(300)]
    instances += [_planted(rng, target) for target in (200, 500, 1000) for _ in range(3)]
    seen = set()
    for inst in instances:
        changed = _redundant_row(inst, rng)
        assert math.prod(v + 1 for v in changed.b if v) - 1 <= 10**5
        want = _outcome(inst)
        seen.add(want[0])
        assert _outcome(changed) == want, (inst, changed)
    assert seen == {"optimal", "infeasible", "unbounded"}
