"""Expected outcomes computed without the solver, and checks of CLI reports.

Everything here is plain Python over ints and Fractions and imports nothing
from knapagg, so a defect in the program cannot hide in its own expectation.
A check returns None when the report is right and a one-line reason when it
is not; the runner counts every reason as a failed call.
"""

from __future__ import annotations

import json
from fractions import Fraction

# Exit code and report status the CLI gives for each expected outcome.
OUTCOMES = {
    "optimal": (0, "ok"),
    "ok": (0, "ok"),
    "infeasible": (1, "infeasible"),
    "unbounded": (2, "unbounded"),
    "budget_exceeded": (3, "budget_exceeded"),
}


def rhs_plus_one(b):
    """prod(b_i + 1), the size of the one-row table the aggregation builds."""
    out = 1
    for bi in b:
        out *= bi + 1
    return out


def running_products(b):
    """Row weights (1, b1+1, (b1+1)(b2+1), ...)."""
    f = [1]
    for bi in b[:-1]:
        f.append(f[-1] * (bi + 1))
    return f


def nonzero_columns(A):
    return [j for j in range(len(A[0])) if any(row[j] for row in A)]


def enumerate_points(A, b, cols):
    """Every nonnegative integer x over `cols` with A[:, cols] x = b, sorted.

    Every column in `cols` must have a positive entry, so each variable is
    bounded by min(b_i // A_ij).
    """
    m = len(b)
    colvecs = [[A[i][j] for i in range(m)] for j in cols]
    found = []
    x = [0] * len(cols)

    def walk(d, resid):
        if d == len(cols):
            if not any(resid):
                found.append(tuple(x))
            return
        col = colvecs[d]
        hi = min(resid[i] // col[i] for i in range(m) if col[i])
        for v in range(hi + 1):
            x[d] = v
            walk(d + 1, [resid[i] - v * col[i] for i in range(m)])
        x[d] = 0

    walk(0, list(b))
    return sorted(found)


def count_points(A, b, cols):
    """Number of nonnegative integer x over `cols` with A[:, cols] x = b.

    A dynamic program over the residual vectors r <= b, indexed in mixed
    radix by the running products, so it costs prod(b_i + 1) per column
    however many points there are.
    """
    m = len(b)
    f = running_products(b)
    size = rhs_plus_one(b)
    digits = [tuple(idx // f[i] % (b[i] + 1) for i in range(m)) for idx in range(size)]
    ways = [0] * size
    ways[0] = 1
    for j in cols:
        col = [A[i][j] for i in range(m)]
        step = sum(fi * a for fi, a in zip(f, col))
        for idx in range(step, size):
            if all(d >= a for d, a in zip(digits[idx], col)):
                ways[idx] += ways[idx - step]
    return ways[size - 1]


def count_aggregated_points(A, b, cols):
    """Number of nonnegative integer t with a . t = a0 for the aggregated row.

    a_j = sum_i f_i A_ij over `cols` and a0 = sum_i f_i b_i, with f the
    running products; counted by the coin-change recurrence, not enumerated.
    """
    f = running_products(b)
    a0 = sum(fi * bi for fi, bi in zip(f, b))
    ways = [0] * (a0 + 1)
    ways[0] = 1
    for j in cols:
        w = sum(f[i] * A[i][j] for i in range(len(b)))
        for v in range(w, a0 + 1):
            ways[v] += ways[v - w]
    return ways[a0]


def _restricted(A, b):
    """Rows and columns left once zero-rhs rows and the variables they pin go.

    A right-hand side that is zero everywhere is left alone, as `solve`
    leaves it.
    """
    m = len(b)
    zero = [i for i in range(m) if b[i] == 0]
    rows, cols = list(range(m)), list(range(len(A[0])))
    if zero and len(zero) < m:
        rows = [i for i in range(m) if b[i] > 0]
        cols = [j for j in cols if not any(A[i][j] for i in zero)]
    return rows, cols


def surrogate_shape(A, b):
    """(columns, rhs) of the table `solve` fills for this instance.

    Mirrors the documented pipeline: zero-rhs rows are restricted away,
    then all-zero columns go; the rhs is prod(b_i + 1) - 1 over kept rows.
    """
    rows, cols = _restricted(A, b)
    cols = [j for j in cols if any(A[i][j] for i in rows)]
    return len(cols), rhs_plus_one([b[i] for i in rows]) - 1


def penalized_cost_bits(A, b, c, sense):
    """Bit length of the largest penalized cost, by the README's formula.

    On the reduced instance: H = L + k * (sum(b) + 1) + 1, with L the
    positive costs times their box bounds and k the smallest shift making
    c + k * colsum nonnegative; the costs are c_j + H * colsum_j.  None when
    a negative-cost zero column ends the pipeline first.
    """
    sign = 1 if sense == "min" else -1
    rows, cols = _restricted(A, b)
    cost = {j: sign * c[j] for j in cols}
    if any(cost[j] < 0 and not any(A[i][j] for i in rows) for j in cols):
        return None
    cols = [j for j in cols if any(A[i][j] for i in rows)]
    colsum = {j: sum(A[i][j] for i in rows) for j in cols}
    upper = {j: min(b[i] // A[i][j] for i in rows if A[i][j]) for j in cols}
    bound = sum(cost[j] * upper[j] for j in cols if cost[j] > 0)
    shift = max(
        ((-cost[j] + colsum[j] - 1) // colsum[j] for j in cols if cost[j] < 0), default=0
    )
    penalty = bound + shift * (sum(b[i] for i in rows) + 1) + 1
    return max((cost[j] + penalty * colsum[j] for j in cols), default=0).bit_length()


def negative_zero_column(A, c, sense):
    """Some all-zero column has a negative cost once the sense is minimize."""
    sign = 1 if sense == "min" else -1
    cols = set(nonzero_columns(A))
    return any(sign * c[j] < 0 for j in range(len(c)) if j not in cols)


def brute_force(A, b, c, sense):
    """(status, objective in the instance's own sense) by full enumeration.

    The instance is canonicalized to minimize and its zero columns dropped;
    a zero column whose canonical cost is negative makes a feasible program
    unbounded.
    """
    sign = 1 if sense == "min" else -1
    cols = nonzero_columns(A)
    pts = enumerate_points(A, b, cols)
    if not pts:
        return "infeasible", None
    if negative_zero_column(A, c, sense):
        return "unbounded", None
    best = min(sum(sign * c[j] * v for j, v in zip(cols, p)) for p in pts)
    return "optimal", sign * best


def lex_max_point(A, b):
    """The lexicographically largest feasible point, zero on zero columns.

    The lexicographic maximum of a finite set is an extreme point of its
    hull, so `bound` must certify it as a vertex.
    """
    cols = nonzero_columns(A)
    pts = enumerate_points(A, b, cols)
    if not pts:
        return None
    x = [0] * len(A[0])
    for j, v in zip(cols, pts[-1]):
        x[j] = v
    return x


def _ints(values):
    return [int(v) for v in values]


def _check_solution(case, result):
    x = _ints(result["x"])
    A, b, c = case.A, case.b, case.c
    if len(x) != len(c) or min(x) < 0:
        return "x has the wrong length or a negative entry"
    for i, row in enumerate(A):
        if sum(a * v for a, v in zip(row, x)) != b[i]:
            return f"x violates row {i}"
    objective = int(result["objective"])
    if objective != sum(cj * v for cj, v in zip(c, x)):
        return "objective is not c.x"
    want = case.expect
    if "objective" in want and objective != want["objective"]:
        return f"objective {objective}, expected {want['objective']}"
    if "objective_at_most" in want and objective > want["objective_at_most"]:
        return f"objective {objective} exceeds the planted point's {want['objective_at_most']}"
    return None


def _check_solve(case, report):
    result = report.get("result")
    status = case.expect["status"]
    if status == "unbounded":
        if report.get("error", {}).get("type") != "UnboundedProblem":
            return "expected an UnboundedProblem error"
        return None
    if result is None or result.get("status") != status:
        return f"solve status is not {status}"
    if status == "optimal":
        return _check_solution(case, result)
    return None


def _check_verify(case, report):
    if report["result"]["falsifications"]:
        return "verify reports falsifications"
    return None


def _check_aggregate(case, report):
    result = report["result"]
    want = rhs_plus_one(case.b)
    if int(result["aggregated_rhs"]) + 1 != want:
        return "aggregated_rhs + 1 differs from prod(b_i + 1)"
    if int(result["rhs_plus_one_product"]) != want:
        return "rhs_plus_one_product differs from prod(b_i + 1)"
    return None


def _check_bound(case, report):
    result = report["result"]
    point = _ints(result["point"])
    if point != case.expect["vertex"] or result.get("is_vertex") is not True:
        return "the lexicographic maximum was not certified as a vertex"
    product = rhs_plus_one(point) - 1
    rhs = rhs_plus_one(case.b) - 1
    if int(result["product_bound"]) != product:
        return "product_bound differs from prod(x_i + 1) - 1"
    if int(result["aggregated_rhs"]) != rhs or int(result["slack"]) != rhs - product:
        return "aggregated_rhs or slack is wrong"
    return None


def _check_hull_block(block):
    pts = [tuple(_ints(p)) for p in block["points"]]
    vertices = {tuple(_ints(v)) for v in block["vertices"]}
    witnessed = set()
    for key, combination in block["witnesses"].items():
        target = tuple(int(v) for v in key.split(",")) if key else ()
        witnessed.add(target)
        total = Fraction(0)
        mix = [Fraction(0)] * len(target)
        for term in combination:
            w = Fraction(term["weight"])
            p = pts[int(term["point_index"])]
            if w <= 0 or p == target:
                return "a witness weight is not positive or cites its own point"
            total += w
            mix = [s + w * v for s, v in zip(mix, p)]
        if total != 1 or mix != list(target):
            return f"witness for {key} does not recombine to its point"
    if vertices & witnessed or vertices | witnessed != set(pts):
        return "vertices and witnessed points do not partition the set"
    return None


def _check_oracle(case, report):
    result = report["result"]
    if len(result["original"]["points"]) != case.expect["original_points"]:
        return "original point count differs from enumeration"
    for name in ("original", "aggregated"):
        reason = _check_hull_block(result[name])
        if reason:
            return f"{name}: {reason}"
    return None


_CHECKS = {
    "solve": _check_solve,
    "verify": _check_verify,
    "aggregate": _check_aggregate,
    "bound": _check_bound,
    "oracle": _check_oracle,
}


def check_report(case, exit_code, stdout):
    """None when the CLI's exit code and report match the case, else why not."""
    want_exit, want_status = OUTCOMES[case.expect["status"]]
    if exit_code != want_exit:
        return f"exit code {exit_code}, expected {want_exit}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON report"
    if report.get("status") != want_status:
        return f"report status {report.get('status')!r}, expected {want_status!r}"
    try:
        return _CHECKS[case.cmd](case, report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
