"""Exact dynamic program for the aggregated equality knapsack.

Minimizes a nonnegative cost over {x >= 0 integer : weights . x = rhs} by
a value-indexed table: cell v holds the cheapest cost of hitting value v
exactly, or marks v unreachable.  Unbounded variables are fine because
weights are strictly positive, so the table is finite.  Budget caps refuse
tables that would not fit before allocating anything.

Two fills compute the same table, column by column, and mark an
unreachable value with the same sentinel, max(costs) * (rhs + 1) + 1.  The
finished table is the cheapest cost of each value over all the columns,
whatever their order, so both fills take the order that leaves the least
to do: the columns that fit (w <= rhs), the cheapest cost per unit of
weight c/w first, compared exactly by cross-multiplication, equal ratios by
weight.  The first column fills an empty table, so it is written in closed
form, best[k*w] = k*c.  A later column is skipped when best[w] <= c
(Gilmore and Gomory, 1966): the table then holds the cheapest costs over
the columns before it, so best[v - w] + c >= best[v - w] + best[w] >=
best[v] at every v, and the column would change no entry.

The Python fill also skips, within a column it runs, each value v whose
predecessor v - w is unreachable: that predecessor holds the sentinel,
and sentinel + c is never stored.  Reachability is a subset-sum question
that a bitset answers a machine word at a time (Pisinger, 2003): one
Python int, closed under each column it runs by a few shifts and ORs of
rhs bits, tells which predecessors to visit.

The reference loop runs on Python integers, so costs of any size stay exact.
When numpy imports and the table is large enough to repay it, the table is
filled on int64 arrays instead, but only after an integer proof that no
value can overflow (the sentinel is at most 2**62); that path is integer
arithmetic too.  It fills each column with one of two kernels, picked by
the weight w.  A narrow column is one running minimum per residue class
mod w, an accumulate over (rows, w) views of cache-sized blocks.  A wide
column runs the recurrence itself, one contiguous row of w values at a
time; each numpy call then costs a few microseconds, which only a long
row repays, while the accumulate costs the same per value at any width.
One reconstruction reads the point back from any of these tables; it
reads the table and the columns in index order only, never the fill order.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Sequence
from functools import cmp_to_key
from itertools import accumulate, compress, count, repeat

from .aggregation import KnapsackInstance, build_knapsack
from .errors import UnboundedProblem, ValidationError
from .instance import IPInstance, canonicalize_minimize, evaluate

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
BUDGET_EXCEEDED = "budget_exceeded"


class SolverBudget(namedtuple("SolverBudget", "max_rhs max_cells")):
    """Caps on table size (ints): the aggregated rhs, and the cell count
    n * (rhs + 1), one cell per column and table value.  That count bounds
    the cells the fill visits; the fill visits fewer, since it skips the
    columns above rhs or dominated by those before them and writes its
    first column in closed form.  The Python fill also skips, in each
    column it runs, the values whose predecessor is unreachable.
    """

    __slots__ = ()

    def __new__(cls, max_rhs=10_000_000, max_cells=1_000_000_000):
        if max_rhs <= 0 or max_cells <= 0:
            raise ValidationError("budget caps must be positive")
        return tuple.__new__(cls, (max_rhs, max_cells))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too


KnapsackSolution = namedtuple(
    "KnapsackSolution", "x value status detail", defaults=(None,)
)
KnapsackSolution.__doc__ = "x (int tuple) and value (int), None unless OPTIMAL."


class Solution(
    namedtuple(
        "Solution", "x objective status residual detail knapsack", defaults=(None,) * 3
    )
):
    """Outcome of the full reduce-and-solve pipeline, in original coordinates.

    x and residual are tuples of ints and objective an int, or None.
    knapsack is the KnapsackInstance that was solved; its reduced.column_map
    lists, in original indices, the variables that reached it, and every
    other coordinate of x is zero.
    """

    __slots__ = ()


# Table sizes (cells) from which the int64 fill pays off.  Measured on a
# 2-vCPU x86-64 VM with CPython 3.11 and numpy 2.4, each time in a fresh
# process on six solve-ladder-shaped tables at each of 1.2, 1.35, 1.5, 1.65
# and 1.8 * 10**6 cells: `import numpy` takes 0.10-0.16 s, the Python fill
# 70-86 ns per cell and the int64 fill about 8 ns per cell, so a process
# that has not imported numpy repays the import from about 1.5 * 10**6
# cells (timed whole, medians: 0.085 s against 0.120 s at 1.2 * 10**6
# cells, 0.114 s against 0.118 s at 1.5 * 10**6, 0.155 s against 0.120 s
# at 1.8 * 10**6).  Once numpy is loaded the int64 fill wins from about 150
# table values per column; the warm threshold sits above that, where it
# costs a few microseconds at most.
_NUMPY_COLD_CELLS = 1_500_000
_NUMPY_WARM_CELLS = 2_000
# Weight from which _fill_int64 fills a column row by row.  Measured on the
# same VM on tables of 3 * 10**5 to 3 * 10**6 values: the accumulate costs
# 5-10 ns per value at any weight, the row recurrence about 1 ns per value
# plus 2-4 us per row, so the two break even at weights of about 380-600.
_ROW_FILL_WEIGHT = 768
# Binary digits of a bitset to compress() selectors: b"0" is truthy.
_BITS = bytes.maketrans(b"01", b"\x00\x01")
# Values per block of _min_by_residues: 512 KiB of int64, which a block's
# three passes (ramp, accumulate, ramp) find in cache.
_BLOCK_VALUES = 1 << 16


def _unreachable(costs: tuple[int, ...], rhs: int) -> int:
    """The sentinel both fills store for a value no combination hits.

    A reachable value v costs at most max(costs) * v, since every weight is
    at least 1, so every table entry is at most the sentinel.  This is also
    the no-overflow proof for _fill_int64 under sentinel <= 2**62.  Every
    table entry lies in [0, 2**62].  The residue-class kernel subtracts at
    most rhs * max(costs) < sentinel from an entry, which stays above
    -2**62.  Both kernels add one cost to an entry, best[v - w] + c <=
    sentinel + max(costs) <= 2**62 + (2**62 - 1) // (rhs + 1) < 2**63.  An
    unreachable entry stays exactly the sentinel, since sentinel + c is
    never below it.
    """
    return max(costs, default=0) * (rhs + 1) + 1


def _use_int64_fill(inf: int, cells: int) -> bool:
    """True when the int64 fill is exact, large enough to pay, and numpy imports."""
    if inf > 1 << 62:
        return False
    loaded = sys.modules.get("numpy") is not None
    if cells < (_NUMPY_WARM_CELLS if loaded else _NUMPY_COLD_CELLS):
        return False
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _cheaper_per_weight(p: tuple[int, int], q: tuple[int, int]) -> int:
    """Sign of c_p / w_p - c_q / w_q for columns (w, c), exactly; then w_p - w_q."""
    return p[1] * q[0] - q[1] * p[0] or p[0] - q[0]


def _fill_order(
    weights: tuple[int, ...], costs: tuple[int, ...], rhs: int
) -> list[tuple[int, int]]:
    """The columns (w, c) that fit, cheapest cost per unit of weight first.

    Equal ratios go by weight, and equal columns keep their index order.
    """
    fit = [(w, c) for w, c in zip(weights, costs) if w <= rhs]
    fit.sort(key=cmp_to_key(_cheaper_per_weight))
    return fit


def _fill_python(
    weights: tuple[int, ...], costs: tuple[int, ...], rhs: int, inf: int
) -> list[int]:
    """Column-by-column fill on Python integers; inf marks an unreachable value.

    Columns go in _fill_order.  The first one writes best[k*w] = k*c into
    the empty table.  A later one is skipped when best[w] <= c; otherwise,
    for v ascending from w, best[v] = min(best[v], best[v - w] + c).

    reach is a bitset in which bit rhs - u marks value u as a sum of the
    weights of the columns run so far.  Before a column runs, reach is
    closed under its weight by doubling, reach |= reach >> s for s = w, 2w,
    4w, ... <= rhs.  A skipped column needs no update: the columns before
    it reach w, and their sums are closed under addition.  The column then
    visits only the values v whose predecessor v - w is in reach.  That is
    exact: v - w < v is already final for this column when v is visited,
    so if it is outside reach it holds inf, and inf + c is never stored.
    Formatting reach >> w in binary lists the predecessors u = 0 ... rhs -
    w in ascending order, one digit each (u = 0 is always reached, so the
    digits start there), and unlike decimal it has no digit limit.  While
    the column runs the fill holds these flags, one byte per value.
    """
    best = [inf] * (rhs + 1)
    best[0] = 0
    reach = 1 << rhs
    for i, (w, c) in enumerate(_fill_order(weights, costs, rhs)):
        if i and best[w] <= c:
            continue
        s = w
        while s <= rhs:
            reach |= reach >> s
            s <<= 1
        if not i:
            # a loop, not best[::w] = ..., which would hold two more lists
            # of rhs // w + 1 pointers while it assigns
            for v, kc in zip(range(w, rhs + 1, w), accumulate(repeat(c, rhs // w))):
                best[v] = kc
            continue
        # unnamed, so the flags are freed when the column ends
        for v in compress(count(w), format(reach >> w, "b").encode().translate(_BITS)):
            cand = best[v - w] + c
            if cand < best[v]:
                best[v] = cand
    return best


def _fill_int64(
    weights: tuple[int, ...], costs: tuple[int, ...], rhs: int, inf: int
) -> memoryview:
    """Column-by-column fill on int64 arrays; inf marks an unreachable value.

    Exact only when inf <= 2**62 (see _unreachable).  Columns go in
    _fill_order, and the table is the same as _fill_python's entry for
    entry.  The first column writes k*c at every multiple k*w, as a running
    sum of c in place on the strided view best[::w]; its last entry,
    (rhs // w) * c, is below inf.  A later column is skipped when best[w]
    <= c; otherwise it finishes the recurrence best[v] = min(best[v],
    best[v - w] + c) for v ascending.  A column of weight w >=
    _ROW_FILL_WEIGHT runs the recurrence a row of w values at a time; a
    narrower one takes a running minimum per residue class, one accumulate
    for every class of a block at once.  numpy's accumulate costs about the
    same per value whatever w is, while a row costs a fixed few
    microseconds plus its w values, so rows win once w is large.
    """
    import numpy as np

    best = np.full(rhs + 1, inf, dtype=np.int64)
    best[0] = 0
    columns = _fill_order(weights, costs, rhs)
    if columns:
        w, c = columns[0]
        first = best[::w]
        first[1:] = c
        np.add.accumulate(first, out=first)
    for w, c in columns[1:]:
        if best[w] <= c:
            continue
        if w >= _ROW_FILL_WEIGHT:
            _min_by_rows(best, w, c)
        else:
            _min_by_residues(best, w, c)
    return memoryview(best)


def _min_by_rows(best, w: int, c: int) -> None:
    """best[v] = min(best[v], best[v - w] + c), one row of w values at a time.

    Rows start at w, 2w, ...; the last may be partial.  A row reads only the
    row before it, which is already final for this column, so each row is
    one contiguous add into a reused buffer and one in-place minimum.
    """
    import numpy as np

    cand = np.empty(w, dtype=np.int64)
    for lo in range(w, len(best), w):
        row = best[lo : lo + w]
        part = cand[: len(row)]
        np.add(best[lo - w : lo - w + len(row)], c, out=part)
        np.minimum(row, part, out=row)


def _min_by_residues(best, w: int, c: int) -> None:
    """The same column as _min_by_rows, as one running minimum per residue class.

    Each residue class of values mod w is one running minimum:
    best[r + k*w] = k*c + min over i <= k of (best[r + i*w] - i*c).  The
    table is taken in blocks of _BLOCK_VALUES // w rows, so that a block
    stays in cache and the ramp k*c is one short array, not one as long as
    the table.  A block is a (rows, w) view whose columns are the residue
    classes.  Its first row continues the row before the block by one step
    of the recurrence, and its remaining values, the first entries of one
    more row, continue its last row the same way.  An unreachable value
    stays exactly inf: if every earlier entry of its class is inf, the
    minimum is inf - k*c, taken at i = k, and inf + c is never below inf.
    """
    import numpy as np

    ramp = np.arange(min(_BLOCK_VALUES, len(best)) // w, dtype=np.int64)
    ramp *= c
    step = len(ramp) * w
    for lo in range(0, len(best), step):
        block = best[lo : lo + step]
        if lo:
            head = block[:w]
            np.minimum(head, best[lo - w : lo - w + len(head)] + c, out=head)
        rows, tail = divmod(len(block), w)
        if not rows:
            break
        table = block[: rows * w].reshape(rows, w)
        table -= ramp[:rows, None]
        np.minimum.accumulate(table, axis=0, out=table)
        table += ramp[:rows, None]
        if tail:
            rest = block[rows * w :]
            np.minimum(rest, table[-1, :tail] + c, out=rest)


def _reconstruct(
    best: Sequence[int],
    weights: tuple[int, ...],
    costs: tuple[int, ...],
    rhs: int,
) -> tuple[int, ...]:
    """Walk a filled table back from rhs to 0.

    At each value take the smallest column j with best[v - w_j] + c_j ==
    best[v], a rule that reads only the table, so both fills give the same
    point.  An unreachable predecessor never matches, because it holds the
    sentinel, which is above best[v].
    """
    x = [0] * len(weights)
    v = rhs
    while v > 0:
        target = best[v]
        for j, w in enumerate(weights):
            if w <= v and best[v - w] + costs[j] == target:
                break
        x[j] += 1
        v -= w
    return tuple(x)


def _decimal(v: int) -> str:
    """v in decimal, or its bit length past sys.get_int_max_str_digits()."""
    try:
        return str(v)
    except ValueError:
        return f"<{v.bit_length()}-bit integer>"


def solve_knapsack(
    kp: KnapsackInstance, budget: SolverBudget | None = None
) -> KnapsackSolution:
    """Exact minimum over the aggregated equality, or infeasible/over-budget.

    Ties between columns are broken toward the smallest index at every value.
    The point is read back from the table of best values alone by the same
    rule, so identical inputs always return the identical point, whichever
    fill computed the table.
    """
    if budget is None:
        budget = SolverBudget()
    n = len(kp.weights)
    cells = n * (kp.rhs + 1)
    if kp.rhs > budget.max_rhs:
        return KnapsackSolution(
            None,
            None,
            BUDGET_EXCEEDED,
            detail=(
                f"aggregated rhs {_decimal(kp.rhs)} = prod(b_i + 1) - 1 exceeds "
                f"max_rhs {_decimal(budget.max_rhs)}"
            ),
        )
    if cells > budget.max_cells:
        return KnapsackSolution(
            None,
            None,
            BUDGET_EXCEEDED,
            detail=(
                f"table of {n} x {_decimal(kp.rhs + 1)} = {_decimal(cells)} cells "
                f"exceeds max_cells {_decimal(budget.max_cells)} "
                "(aggregated rhs is prod(b_i + 1) - 1)"
            ),
        )
    inf = _unreachable(kp.costs, kp.rhs)
    fill = _fill_int64 if _use_int64_fill(inf, cells) else _fill_python
    best = fill(kp.weights, kp.costs, kp.rhs, inf)
    value = best[kp.rhs]
    if value == inf:
        return KnapsackSolution(
            None, None, INFEASIBLE, detail="aggregated knapsack has no solution"
        )
    return KnapsackSolution(
        _reconstruct(best, kp.weights, kp.costs, kp.rhs), value, OPTIMAL
    )


def solve_original(
    inst: IPInstance, budget: SolverBudget | None = None
) -> Solution:
    """Reduce, solve the surrogate, and certify the answer on the original.

    Pipeline: canonicalize sense, build the surrogate (build_knapsack drops
    zero right-hand-side rows with the variables they pin, since a zero
    entry would make two aggregating weights coincide and let the surrogate
    shuffle mass between rows undetected, then drops zero columns, then
    aggregates and penalizes), run the exact table, lift the minimizer back,
    and accept it only if it satisfies Ax = b.  The penalty margin makes a
    minimizer that misses b certify the program infeasible, with residual;
    a feasible program with a negative-cost zero column is unbounded.
    """
    core = canonicalize_minimize(inst)
    kp = build_knapsack(core)
    sol = solve_knapsack(kp, budget)
    if sol.x is None:
        return Solution(None, None, sol.status, detail=sol.detail, knapsack=kp)
    lifted = kp.reduced.lift(sol.x)
    # the residual does not depend on c, and inst.c has the original sense
    ev = evaluate(inst, lifted)
    if not ev.feasible:
        return Solution(
            None,
            None,
            INFEASIBLE,
            residual=ev.residual,
            detail=(
                "surrogate minimizer violates the original constraints, "
                "so the original program has no feasible point"
            ),
            knapsack=kp,
        )
    for j in kp.reduced.zero_columns:
        if core.c[j] < 0:
            raise UnboundedProblem(
                f"column {j} is identically zero with negative cost {core.c[j]}"
            )
    return Solution(lifted, ev.objective, OPTIMAL, knapsack=kp)
