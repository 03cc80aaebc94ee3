"""Collapse the constraint rows of an integer program into one knapsack row.

The aggregating vector for right-hand side b is built from running products
of (b_i + 1): its first entry is 1 and each later entry multiplies the
previous one by (b_i + 1).  Weighting the rows of A by this vector yields a
single equality a^T x = a0 whose nonnegative integer solutions contain every
solution of Ax = b, and whose hull keeps every vertex of the original hull.
The right-hand side telescopes: a0 = prod(b_i + 1) - 1.

To recover the original optimum from the single-row relaxation the objective
is shifted by a penalty that charges every unit of every variable: with L an
upper bound on the optimal value, k the smallest shift making the cost vector
nonnegative against the column sums, and H = L + k * (sum(b) + 1) + 1,
minimizing (c + H * colsum)^T x over the aggregated set lands on a
minimum-cost point of the original program whenever one exists.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .errors import ValidationError
from .instance import IPInstance, Reduction, SENSE_MIN, box_bounds, reduce


def aggregation_vector(b: Sequence[int]) -> tuple[int, ...]:
    """Running-product row weights for right-hand side b.

    Entry 0 is 1 and entry i+1 is entry i times (b_i + 1).  Requires at
    least one row and nonnegative entries.
    """
    if len(b) == 0:
        raise ValidationError("aggregation needs at least one row")
    f = [1]
    for bi in b[:-1]:
        if bi < 0:
            raise ValidationError("right-hand side entries must be nonnegative")
        f.append(f[-1] * (bi + 1))
    if b[-1] < 0:
        raise ValidationError("right-hand side entries must be nonnegative")
    return tuple(f)


def aggregate(
    A: Sequence[Sequence[int]], b: Sequence[int]
) -> tuple[tuple[int, ...], int]:
    """f . A column by column and f . b, for the running-product weights f of b.

    The row and right-hand side of the single-row surrogate.  Every
    coefficient is positive when A has no zero column.
    """
    f = aggregation_vector(b)
    a = tuple(sum(fi * aij for fi, aij in zip(f, column)) for column in zip(*A))
    a0 = sum(fi * bi for fi, bi in zip(f, b))
    return a, a0


def vertex_lower_bound(x0: Sequence[int]) -> int:
    """prod(x0_i + 1) - 1, a floor no aggregated right-hand side can beat

    for any vertex x0 of the original hull.
    """
    out = 1
    for v in x0:
        if v < 0:
            raise ValidationError("vertex coordinates must be nonnegative")
        out *= v + 1
    return out - 1


class KnapsackInstance(
    namedtuple(
        "KnapsackInstance", "weights rhs costs upper_bound shift penalty reduced"
    )
):
    """The single-row surrogate of an integer program.

    weights/rhs (int tuple, int) describe the aggregated equality, costs (int
    tuple) the penalized objective over the kept columns.  The ints
    upper_bound, shift and penalty are the L, k, H parameters of the
    construction.  reduced is the Reduction of the instance given to
    build_knapsack, so its column_map and lift lead from the kept columns
    back to that instance's coordinates.
    """

    __slots__ = ()

    def __new__(cls, weights, rhs, costs, upper_bound, shift, penalty, reduced):
        if any(w <= 0 for w in weights):
            raise ValidationError("aggregated weights must be positive")
        if rhs < 0:
            raise ValidationError("aggregated right-hand side must be nonnegative")
        if len(costs) != len(weights):
            raise ValidationError("cost vector must match the weight vector")
        if any(cv < 0 for cv in costs):
            raise ValidationError("penalized costs must be nonnegative")
        fields = weights, rhs, costs, upper_bound, shift, penalty, reduced
        return tuple.__new__(cls, fields)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too


def build_knapsack(inst: IPInstance) -> KnapsackInstance:
    """Run the whole construction on a minimize-canonical instance.

    Reduces the instance, aggregates the kept rows, and penalizes the
    objective so the surrogate's minimizer decides the original program.
    After the reduction every kept column has a positive entry, so its box
    bound u_j is finite and its column sum s_j positive.  Then

    - L = sum of c_j * u_j over c_j > 0 bounds c^T x at every feasible
      point, since each one lies in the box;
    - k, the smallest integer >= 0 with c_j + k * s_j >= 0 for every j, is
      the most negative raw cost one unit of row mass can carry;
    - H = L + k * (sum(b) + 1) + 1 makes the penalized objective prefer a
      point satisfying the full row system over one that merely satisfies
      the aggregated row.  A point of the surrogate that misses b has row
      mass at least sum(b) + 1 (b is the strict row-mass minimizer when its
      entries are positive), and each unit of it can hide up to k units of
      negative raw cost, so such a point can swing k * (sum(b) + 1) below
      the L a feasible point may reach; one more unit makes the separation
      strict.  H > k, even when b is all zero, so every penalized cost
      c_j + H * s_j is nonnegative.

    The costs of dropped zero columns play no part: whether a negative one
    makes the program unbounded depends on the kept rows being feasible,
    which only the solver decides.
    """
    if inst.sense != SENSE_MIN:
        raise ValidationError("build_knapsack requires a minimize-canonical instance")
    red = reduce(inst)
    inner = red.inner
    weights, rhs = aggregate(inner.A, inner.b)
    col_sums = tuple(sum(column) for column in zip(*inner.A))
    bound = sum(cj * uj for cj, uj in zip(inner.c, box_bounds(inner)) if cj > 0)
    # ceil(-c_j / s_j) = -(c_j // s_j), without floats
    shift = max((-(cj // sj) for cj, sj in zip(inner.c, col_sums) if cj < 0), default=0)
    penalty = bound + shift * (sum(inner.b) + 1) + 1
    costs = tuple(cj + penalty * sj for cj, sj in zip(inner.c, col_sums))
    return KnapsackInstance(
        weights=weights,
        rhs=rhs,
        costs=costs,
        upper_bound=bound,
        shift=shift,
        penalty=penalty,
        reduced=red,
    )
