"""Ground-truth machinery, exact end to end.

Everything here works over Python ints: feasible-set enumeration with a
hard point cap, convex-hull membership by a phase-1 simplex with Bland's
rule that pivots fraction-free on an integer adjugate and determinant and
returns its weights as exact fractions.Fraction values, vertex extraction
with rational witnesses, brute force optima, and executable forms of the
guarantees the aggregation is supposed to deliver.  Every vertex test
first looks for a signed lexicographic order under which the point comes
strictly first, over the coordinates and then over the pairwise sums and
differences, which proves it a vertex by integer comparisons alone; only
a point without such an order goes to the LP.  These routines are
deliberately independent of the dynamic-programming solver so the two can
check each other.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from operator import sub

from .aggregation import aggregation_vector, vertex_lower_bound
from .errors import CapExceeded, DimensionMismatch, IterationLimit, ValidationError
from .instance import IPInstance

Point = tuple[int, ...]

DEFAULT_POINT_CAP = 1_000_000
DEFAULT_PIVOT_CAP = 100_000

Witness = tuple[tuple[int, Fraction], ...]


class PointSet(namedtuple("PointSet", "dim points")):
    """Distinct points (tuple of Points) of one dimension dim, in a fixed order."""

    __slots__ = ()

    def __new__(cls, dim, points):
        seen = set()
        for p in points:
            if len(p) != dim:
                raise DimensionMismatch("point dimension does not match the set")
            if p in seen:
                raise ValidationError("points must be distinct")
            seen.add(p)
        return tuple.__new__(cls, (dim, points))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __len__(self) -> int:
        return len(self.points)


class VertexReport(namedtuple("VertexReport", "points vertices witnesses")):
    """Vertices of conv(points) plus a rational certificate per non-vertex.

    points is the PointSet, vertices a tuple of Points, and witnesses a
    dict, a fresh empty one by default: witnesses[p] lists (index into
    points, weight) pairs with positive weights summing to one whose
    combination equals p; every cited index refers to a point other than p.
    """

    __slots__ = ()

    def __new__(cls, points, vertices, witnesses=None):
        witnesses = {} if witnesses is None else witnesses
        return tuple.__new__(cls, (points, vertices, witnesses))


BruteForceResult = namedtuple("BruteForceResult", "status value argmin")
BruteForceResult.__doc__ = "status (str), least value (int or None), argmin (Points)."


class CheckOutcome(
    namedtuple("CheckOutcome", "holds vacuous counterexample", defaults=(False, None))
):
    """Result of one guarantee check: whether the claim holds (bool).

    vacuous (bool) marks the case where the feasible set is empty and the
    claim holds with nothing to test; counterexample (dict or None) carries
    the offending data when holds is False.
    """

    __slots__ = ()


def enumerate_feasible(
    A: Sequence[Sequence[int]],
    b: Sequence[int],
    cap: int = DEFAULT_POINT_CAP,
) -> PointSet:
    """All nonnegative integer solutions of Ax = b, lexicographically sorted.

    Every column needs a positive entry, which gives it the natural bound
    min(b_i // A_ij); an all-zero column has no bound and is refused with
    ValidationError.  Raises CapExceeded as soon as more than cap points
    have been found; nothing partial is returned.

    The search assigns variables in ascending order of their bound and
    prunes any branch whose remaining columns cannot touch a row with
    residual left.  The two widest-ranging variables, x_j and x_k, come
    last and are solved together from the first row p where column k is
    positive.  If some row q has (A_qj, A_qk) not a multiple of (A_pj,
    A_pk), rows p and q fix x_j and x_k by Cramer's rule: one point when
    both divisions are exact and nonnegative, none otherwise.  If every
    row is such a multiple, A_pj x_j + A_pk x_k = r_p is a two-variable
    linear Diophantine equation.  With g = gcd(A_pj, A_pk) it has no
    solution unless g divides r_p, and otherwise x_j runs over the one
    residue class modulo A_pk / g that the modular inverse of A_pj / g
    picks out (extended Euclid) and x_k follows by exact division.  Either
    way only the other rows remain to check.  A single column is solved
    by division.  One row with three or more columns takes the same search
    on a scalar residual, with no call per point: the cap is checked
    against the length of each residue-class range before it is stored.
    """
    m = len(A)
    if m == 0:
        raise ValidationError("at least one constraint row is required")
    n = len(A[0])
    for row in A:
        if len(row) != n:
            raise ValidationError("rows must all have the same length")
        if any(v < 0 for v in row):
            raise ValidationError("matrix entries must be nonnegative")
    if any(v < 0 for v in b):
        raise ValidationError("right-hand side entries must be nonnegative")
    if len(b) != m:
        raise DimensionMismatch("right-hand side length does not match the rows")
    if cap <= 0:
        raise ValidationError("cap must be positive")

    if n == 0:
        pts = ((),) if all(v == 0 for v in b) else ()
        return PointSet(0, pts)

    cols = [tuple(A[i][j] for i in range(m)) for j in range(n)]
    bounds: list[int] = []
    for j, col in enumerate(cols):
        if not any(col):
            raise ValidationError(f"column {j} is identically zero and has no bound")
        bounds.append(min(b[i] // col[i] for i in range(m) if col[i] > 0))

    if n == 1:
        col = cols[0]
        p = next(i for i in range(m) if col[i] > 0)
        q, r = divmod(b[p], col[p])
        hit = r == 0 and all(col[i] * q == b[i] for i in range(m))
        return PointSet(1, ((q,),) if hit else ())

    order = sorted(range(n), key=lambda j: (bounds[j], j))

    found: list[Point] = []
    x = [0] * n

    # the last two variables x_j, x_k, solved together on the pivot row p
    j, k = order[n - 2], order[n - 1]
    cj, ck = cols[j], cols[k]
    p = next(i for i in range(m) if ck[i] > 0)
    ajp, akp = cj[p], ck[p]
    q = next((i for i in range(m) if cj[i] * akp != ck[i] * ajp), -1)
    if q >= 0:
        ajq, akq = cj[q], ck[q]
        det = ajp * akq - akp * ajq
    else:
        g = gcd(ajp, akp)
        step, drop = akp // g, ajp // g
        inv = pow(drop, -1, step)

    if m == 1 and n > 2:
        # one row: the residual is one int, every column touches the row,
        # and the last two variables are solved inside the loop over the
        # third-last one
        a = A[0]

        def walk_row(d: int, r: int) -> None:
            t = order[d]
            at = a[t]
            if d < n - 3:
                for v in range(r // at + 1):
                    x[t] = v
                    walk_row(d + 1, r - v * at)
                return
            for v in range(r // at + 1):
                rp = r - v * at
                if rp % g:
                    continue
                us = range(rp // g * inv % step, rp // ajp + 1, step)
                if len(found) + len(us) > cap:
                    raise CapExceeded(f"more than {cap} feasible points")
                x[t] = v
                w = (rp - us.start * ajp) // akp
                for u in us:
                    x[j] = u
                    x[k] = w
                    found.append(tuple(x))
                    w -= drop

        walk_row(0, b[0])
        found.sort()
        return PointSet(n, tuple(found))

    # live[d][i]: some column at depth >= d touches row i
    live = [[False] * m for _ in range(n + 1)]
    for d in range(n - 1, -1, -1):
        col = cols[order[d]]
        for i in range(m):
            live[d][i] = live[d + 1][i] or col[i] > 0
    resid = list(b)
    # rows besides p and q that x_j or x_k touch; live[n - 2] already
    # requires a zero residual on every row that neither touches
    rest = [(i, cj[i], ck[i]) for i in range(m) if i not in (p, q) and (cj[i] or ck[i])]

    def walk(d: int) -> None:
        alive = live[d]
        for i in range(m):
            if resid[i] and not alive[i]:
                return
        t = order[d]
        col = cols[t]
        hi = bounds[t]
        for i in range(m):
            if col[i] > 0:
                hi = min(hi, resid[i] // col[i])
        if d == n - 2:
            rp = resid[p]
            if q >= 0:
                rq = resid[q]
                v, rv = divmod(rp * akq - akp * rq, det)
                w, rw = divmod(ajp * rq - rp * ajq, det)
                if rv or rw or v < 0 or w < 0:
                    return
                values: Sequence[int] = (v,)
            elif rp % g:
                return
            else:
                values = range(rp // g * inv % step, hi + 1, step)
            for v in values:
                w = (rp - v * ajp) // akp
                for i, aj, ak in rest:
                    if resid[i] != v * aj + w * ak:
                        break
                else:
                    if len(found) >= cap:
                        raise CapExceeded(f"more than {cap} feasible points")
                    x[j] = v
                    x[k] = w
                    found.append(tuple(x))
            return
        for v in range(hi + 1):
            x[t] = v
            walk(d + 1)
            for i in range(m):
                resid[i] -= col[i]
        for i in range(m):
            resid[i] += col[i] * (hi + 1)
        x[t] = 0

    walk(0)
    found.sort()
    return PointSet(n, tuple(found))


def check_convex_combination(
    x0: Sequence[int],
    others: Sequence[Point],
    pivot_cap: int = DEFAULT_PIVOT_CAP,
) -> tuple[Fraction, ...] | None:
    """Exact convex weights expressing x0 over others, or None if impossible.

    Solves the phase-1 linear program for sum(lam_i * p_i) = x0,
    sum(lam_i) = 1, lam >= 0 with a revised simplex in integer arithmetic.
    The basis inverse is held fraction-free as B^{-1} = adj / d with an
    integer adjugate adj and d = det B > 0, and the basic solution as
    x_B = xn / d.  A pivot on p = (adj . a)[leave] keeps the leaving row,
    maps every other row to (p * row - dn_i * lead) / d, which divides
    exactly (Sylvester's identity, as in Bareiss elimination), and sets
    d = p.  Pricing scans columns with integer dot products against the
    sum of the adjugate rows of artificial basics, and the ratio test
    cross-multiplies.  Bland's smallest-index rule everywhere, so no
    cycling; artificial columns never re-enter, which cannot change
    feasibility of the phase-1 optimum.  The weights are returned as exact
    Fractions xn_i / d.  Raises IterationLimit past pivot_cap, and
    ValidationError before any work when pivot_cap is negative.
    """
    if pivot_cap < 0:
        raise ValidationError("pivot cap must be nonnegative")
    pts = [tuple(p) for p in others]
    r = len(pts)
    dim = len(x0)
    for p in pts:
        if len(p) != dim:
            raise DimensionMismatch("all points must share the dimension of x0")
    if r == 0:
        return None
    rows = dim + 1
    rhs = [int(v) for v in x0] + [1]
    cols = [list(p) + [1] for p in pts]
    for i in range(rows):
        if rhs[i] < 0:
            rhs[i] = -rhs[i]
            for col in cols:
                col[i] = -col[i]
    col_tuples = [tuple(col) for col in cols]

    basis = [r + i for i in range(rows)]  # artificials
    adj = [[int(i == jj) for jj in range(rows)] for i in range(rows)]
    xn = rhs  # x_B = xn / d
    d = 1

    for _ in range(pivot_cap):
        art = [i for i in range(rows) if basis[i] >= r]
        if not any(xn[i] for i in art):
            lam = [Fraction(0)] * r
            for i in range(rows):
                if basis[i] < r:
                    lam[basis[i]] = Fraction(xn[i], d)
            return tuple(lam)
        # d * y, y = (phase-1 costs of basis) . B^{-1}; artificials cost 1
        yn = [sum(adj[i][t] for i in art) for t in range(rows)]
        enter = -1
        for j in range(r):
            col = col_tuples[j]
            s = 0
            for t in range(rows):
                s += yn[t] * col[t]
            if s > 0:
                enter = j
                break
        if enter < 0:
            return None
        col = col_tuples[enter]
        dn = [sum(a * c for a, c in zip(adj[i], col)) for i in range(rows)]
        leave = -1
        for i in range(rows):
            if dn[i] > 0:
                if leave < 0:
                    leave = i
                    continue
                # xn[i] / dn[i] against xn[leave] / dn[leave], both dn > 0
                here = xn[i] * dn[leave]
                there = xn[leave] * dn[i]
                if here < there or (here == there and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise AssertionError("phase-1 objective is bounded; no blocking row found")
        p = dn[leave]
        lead = adj[leave]
        xl = xn[leave]
        for i in range(rows):
            if i != leave:  # rows with dn[i] == 0 are rescaled too
                fac = dn[i]
                adj[i] = [(p * a - fac * l) // d for a, l in zip(adj[i], lead)]
                xn[i] = (p * xn[i] - fac * xl) // d
        d = p
        basis[leave] = enter
    raise IterationLimit(f"no decision after {pivot_cap} pivots")


def _lex_extreme(
    p: Point, others: Sequence[Point]
) -> tuple[tuple[int, int], ...] | None:
    """A signed coordinate order under which p beats every other point, or None.

    Greedy over integer comparisons: pick an unused coordinate t on which p
    is at least the maximum (sign +1) or at most the minimum (sign -1) of
    the points still tied with p, keep only those with q[t] == p[t], and
    stop when none are left.  A pick only shrinks the tied set, so any
    coordinate that qualifies once keeps qualifying and the greedy succeeds
    exactly when some signed order exists.  The order ((t_1, s_1), ...,
    (t_K, s_K)) is a vertex certificate: with M one more than the largest
    coordinate gap, d[t_k] = s_k * M**(K - k) (zero elsewhere) gives
    d . p > d . q for every q in others, so p is the unique maximizer of an
    integer linear functional over the set.  None means no such order;
    p may still be a vertex.
    """
    rest = others
    free = list(range(len(p)))
    order: list[tuple[int, int]] = []
    while rest:
        for t in free:
            pt = p[t]
            vals = [q[t] for q in rest]
            if pt >= max(vals):
                sign = 1
            elif pt <= min(vals):
                sign = -1
            else:
                continue
            break
        else:
            return None
        free.remove(t)
        order.append((t, sign))
        rest = [q for q in rest if q[t] == pt]
    return tuple(order)


def _pair_form(p: Point) -> Point:
    """p's coordinates, then x_a + x_b and x_a - x_b for each a < b."""
    pairs = list(combinations(p, 2))
    return (*p, *[u + v for u, v in pairs], *[u - v for u, v in pairs])


def witness(
    p: Point, pool: Sequence[Point], pivot_cap: int
) -> tuple[tuple[Point, Fraction], ...] | None:
    """None if p is a vertex of conv(pool), else p's (point, weight) pairs.

    p itself is dropped from pool first.  A signed order (_lex_extreme)
    proves a vertex by integer comparisons alone, first over the
    coordinates and then over the pair forms of _pair_form.  The pair forms
    keep the coordinates, so distinct points stay distinct, and an order
    over forms f_k is the same certificate: d = sum(s_k * M**(K - k) * f_k)
    separates p strictly.  Any other point goes to check_convex_combination,
    whose positive weights are cited with their points and whose zero
    weights are dropped.
    """
    others = [q for q in pool if q != p]
    if _lex_extreme(p, others) is not None:
        return None
    if _lex_extreme(_pair_form(p), [_pair_form(q) for q in others]) is not None:
        return None
    lam = check_convex_combination(p, others, pivot_cap)
    if lam is None:
        return None
    return tuple((q, w) for q, w in zip(others, lam) if w)


def vertex_set(
    points: PointSet, pivot_cap: int = DEFAULT_PIVOT_CAP
) -> VertexReport:
    """Vertices of the convex hull of a finite point set, with certificates.

    Three passes.  First, any point that is the exact midpoint of two others
    in the set is discarded with the obvious half-half witness; a true
    vertex can never be such a midpoint.  Of two points q, 2p - q other than
    p, one is lexicographically below p and the other above it, so the pass
    tries only the points below p, in ascending order.  On a sorted set,
    which every caller passes, those are the points before p, and the pair
    found is the one a scan of the whole set would find first.  Second,
    each survivor that comes strictly first among the current candidate
    pool under some signed lexicographic order, over its coordinates or
    over their pairwise sums and differences, is a vertex, proven by
    integer comparisons alone.  Third, every other survivor is tested
    against the pool with the exact LP, which either gives its convex
    weights or proves it a vertex.  Dropping proven non-vertices from the
    pool is safe because the pool always contains every vertex, and
    membership in the hull of the full set equals membership in the hull
    of its vertices.  A vertex proven by its order uses no pivots, so
    IterationLimit is raised only when an LP actually runs past pivot_cap.
    A negative pivot_cap raises ValidationError before any work starts.
    """
    if pivot_cap < 0:
        raise ValidationError("pivot cap must be nonnegative")
    pts = points.points
    index = {p: i for i, p in enumerate(pts)}
    ranked = sorted(pts)
    half = Fraction(1, 2)
    witnesses: dict[Point, Witness] = {}
    survivors: list[Point] = []
    for p in pts:
        dbl = tuple(2 * v for v in p)
        wit: Witness | None = None
        for q in ranked:
            if q >= p:
                break
            other = tuple(map(sub, dbl, q))
            t = index.get(other)
            if t is not None:
                i, j = sorted((index[q], t))
                wit = ((i, half), (j, half))
                break
        if wit is None:
            survivors.append(p)
        else:
            witnesses[p] = wit
    pool = list(survivors)
    vertices: list[Point] = []
    for p in survivors:
        cited = witness(p, pool, pivot_cap)
        if cited is None:
            vertices.append(p)
        else:
            witnesses[p] = tuple((index[q], w) for q, w in cited)
            pool.remove(p)
    return VertexReport(points, tuple(vertices), witnesses)


def brute_force_optimum(inst: IPInstance, pts: PointSet) -> BruteForceResult:
    """Minimum of c^T x over a point set, with all argmins.

    pts is the feasible set of the instance, as enumerate_feasible(inst.A,
    inst.b) returns it; the sense is taken as minimize, so canonicalize
    first for maximize programs.
    """
    if not pts.points:
        return BruteForceResult("infeasible", None, ())
    values = [
        sum(cj * xj for cj, xj in zip(inst.c, p)) for p in pts.points
    ]
    best = min(values)
    argmin = tuple(p for p, v in zip(pts.points, values) if v == best)
    return BruteForceResult("optimal", best, argmin)


def check_rhs_vertex(
    b: Sequence[int],
    cap: int = DEFAULT_POINT_CAP,
    pivot_cap: int = DEFAULT_PIVOT_CAP,
) -> bool:
    """The right-hand side minimizes the coordinate sum and is a hull vertex.

    Builds the aggregating vector f for b, enumerates every nonnegative
    integer t with f . t = f . b, and confirms three things: the coordinate
    sum e . t attains its minimum at t = b; when every entry of b is
    positive, b is the only minimizer; and b is a vertex of the convex hull
    of the enumerated set (no convex combination of the other points
    reaches it).

    Uniqueness of the minimizer cannot be demanded when b has a zero entry.
    A zero entry makes two consecutive weights of f equal, and moving a
    unit between two coordinates with equal weights changes neither f . t
    nor e . t, so distinct minimizers appear: for b = (0, 1) the weights
    are f = (1, 1) and both (0, 1) and (1, 0) have coordinate sum 1.  The
    vertex property itself survives: b is the lexicographically largest
    point of the set when coordinates are compared from the last one down,
    hence always an extreme point, and the signed-order test proves it so
    without the LP.  A negative pivot_cap raises ValidationError first.
    """
    if pivot_cap < 0:
        raise ValidationError("pivot cap must be nonnegative")
    bt = tuple(int(v) for v in b)
    f = aggregation_vector(bt)
    a0 = sum(fi * bi for fi, bi in zip(f, bt))
    pts = enumerate_feasible((f,), (a0,), cap)
    target = min(sum(p) for p in pts.points)
    minimizers = [p for p in pts.points if sum(p) == target]
    if bt not in minimizers:
        return False
    if all(v > 0 for v in bt) and minimizers != [bt]:
        return False
    return witness(bt, pts.points, pivot_cap) is None


def check_vertex_preservation(
    a: Sequence[int],
    a0: int,
    report: VertexReport,
    cap: int = DEFAULT_POINT_CAP,
    pivot_cap: int = DEFAULT_PIVOT_CAP,
) -> CheckOutcome:
    """Every vertex of the original hull stays a vertex after aggregation.

    a . x = a0 is the aggregated row, as aggregate or build_knapsack gives
    it, and report is vertex_set of the original feasible set.  Enumerates
    the aggregated feasible set (every entry of a must be positive) and
    proves each original vertex lies outside the hull of the other
    aggregated points.  An empty feasible set reports vacuous success.  A
    negative pivot_cap raises ValidationError first.
    """
    if pivot_cap < 0:
        raise ValidationError("pivot cap must be nonnegative")
    if not report.points.points:
        return CheckOutcome(True, vacuous=True)
    agg = enumerate_feasible((a,), (a0,), cap)
    for v in report.vertices:
        cited = witness(v, agg.points, pivot_cap)
        if cited is not None:
            return CheckOutcome(
                False,
                counterexample={
                    "vertex": v,
                    "combination": cited,
                    "aggregated_row": a,
                    "aggregated_rhs": a0,
                },
            )
    return CheckOutcome(True)


def check_rhs_lower_bound(a0: int, report: VertexReport) -> CheckOutcome:
    """The aggregated rhs a0 dominates prod(v_i + 1) - 1 at every original vertex.

    report is vertex_set of the original feasible set; an empty set reports
    vacuous success.
    """
    if not report.points.points:
        return CheckOutcome(True, vacuous=True)
    for v in report.vertices:
        bound = vertex_lower_bound(v)
        if a0 < bound:
            return CheckOutcome(
                False,
                counterexample={
                    "vertex": v,
                    "product_bound": bound,
                    "aggregated_rhs": a0,
                },
            )
    return CheckOutcome(True)


def check_box_injectivity(
    a: Sequence[int], x0: Sequence[int], cap: int = DEFAULT_POINT_CAP
) -> bool:
    """a . t takes distinct values on the whole box 0 <= t <= x0.

    This is the mechanism behind the rhs lower bound: an injective row on
    the box below a vertex forces at least prod(x0_i + 1) - 1 onto the
    aggregated right-hand side.  Raises CapExceeded when the box has more
    than cap points.
    """
    if len(a) != len(x0):
        raise DimensionMismatch("row and box corner must have the same length")
    size = 1
    for v in x0:
        if v < 0:
            raise ValidationError("box corner must be nonnegative")
        size *= v + 1
        if size > cap:
            raise CapExceeded(f"box has more than {cap} points")
    seen: set[int] = set()
    for t in product(*(range(v + 1) for v in x0)):
        val = sum(ai * ti for ai, ti in zip(a, t))
        if val in seen:
            return False
        seen.add(val)
    return True
