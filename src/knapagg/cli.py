"""Command line front end.

Five subcommands: aggregate (show the single-row surrogate), solve (run the
exact table and certify), verify (run the guarantee checks and compare the
solver against brute force), bound (certify a vertex and its product bound),
oracle (dump feasible sets, vertices, witnesses).  Every run writes one JSON
report to stdout with stable key order and every number as a decimal string,
so identical inputs give byte-identical reports; timing and a one-line
summary go to stderr.

Exit codes: 0 success, 1 infeasible, 2 unbounded, 3 budget or cap exceeded,
4 input error, 5 a guarantee check failed.
"""

from __future__ import annotations

import functools
import sys
import time
from argparse import ArgumentParser, Namespace
from collections.abc import Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .aggregation import (
    KnapsackInstance,
    aggregation_vector,
    build_knapsack,
    vertex_lower_bound,
)
from .errors import (
    CapExceeded,
    IterationLimit,
    KnapaggError,
    ParseError,
    UnboundedProblem,
    ValidationError,
)
from .instance import (
    IPInstance,
    canonicalize_minimize,
    evaluate,
    instance_digest,
    parse_instance,
    parse_int,
)
from .knapsack import (
    BUDGET_EXCEEDED,
    INFEASIBLE,
    OPTIMAL,
    SolverBudget,
    solve_original,
)
from .oracle import (
    DEFAULT_PIVOT_CAP,
    DEFAULT_POINT_CAP,
    PointSet,
    brute_force_optimum,
    check_rhs_lower_bound,
    check_rhs_vertex,
    check_vertex_preservation,
    enumerate_feasible,
    vertex_set,
    witness,
)

_STATUS_EXIT = {
    "ok": 0,
    "infeasible": 1,
    "unbounded": 2,
    "budget_exceeded": 3,
    "cap_exceeded": 3,
    "input_error": 4,
    "falsified": 5,
}

# the report status of each error a subcommand may raise, subclasses included
_ERROR_STATUS = (
    (UnboundedProblem, "unbounded"),
    ((CapExceeded, IterationLimit), "cap_exceeded"),
    ((ParseError, ValidationError), "input_error"),
)

# the argv fields that route a call; every other one is a report setting
_ROUTING = ("cmd", "instance")


class UsageError(KnapaggError):
    pass


class _Parser(ArgumentParser):
    commands: dict[str, ArgumentParser]  # top level: each subcommand's parser

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _render(value: object, newline_indent: str) -> str:
    """The JSON text of a report value, in one pass with no intermediate copy.

    The text is json.dumps(v, indent=2, sort_keys=True) of the value v with
    every int, Fraction and dict key first turned into a string: ints as
    decimal strings, a Fraction as "p/q", dict keys as str(k) sorted, lists
    and tuples alike.  newline_indent is the newline and indentation the
    value's own line starts with.  Any other type, a float above all, raises
    TypeError, so no inexact number reaches a report, and a number too long
    to write in decimal raises CapExceeded.  Containers must be exactly a
    list, tuple or dict, so a record, a named tuple, raises too.
    """
    kind = type(value)
    # exact types first; subclasses and the rest take the isinstance tests
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is not int:
        inner = newline_indent + "  "
        if kind is dict:
            if not value:
                return "{}"
            if not all(type(k) is str for k in value):
                value = {str(k): v for k, v in value.items()}
            items = [
                encode_basestring_ascii(k) + ": " + _render(value[k], inner)
                for k in sorted(value)
            ]
            return "{" + inner + ("," + inner).join(items) + newline_indent + "}"
        if kind is list or kind is tuple:
            if not value:
                return "[]"
            items = [_render(v, inner) for v in value]
            return "[" + inner + ("," + inner).join(items) + newline_indent + "]"
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
    try:
        if isinstance(value, int):
            return '"%d"' % value
        if isinstance(value, Fraction):
            return '"%d/%d"' % (value.numerator, value.denominator)
    except ValueError:
        # Python writes no int past sys.get_int_max_str_digits() in decimal,
        # and a value derived from inputs within that limit can outgrow it;
        # the report is refused, the process-wide limit left as it is
        raise CapExceeded(
            "a value derived from the input is past the "
            f"{sys.get_int_max_str_digits()}-digit limit for decimal integer strings"
        ) from None
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _point_key(p: Sequence[int]) -> str:
    return ",".join(str(v) for v in p)


def _set_block(pts: PointSet, pivot_cap: int) -> dict:
    report = vertex_set(pts, pivot_cap)
    witnesses = {
        _point_key(p): [
            {"point_index": idx, "weight": w} for idx, w in wit
        ]
        for p, wit in sorted(report.witnesses.items())
    }
    return {
        "points": list(report.points.points),
        "vertices": list(report.vertices),
        "witnesses": witnesses,
    }


_PINNED = "pinned to zero by a zero right-hand-side row"


def _zero_column_reason(cost: int) -> str:
    if cost >= 0:
        return "zero column, cost >= 0, variable fixed to 0"
    return f"zero column, negative cost {cost}: unbounded if the kept rows are feasible"


def _cmd_aggregate(inst: IPInstance, kp: KnapsackInstance, args: Namespace) -> tuple[dict, str]:
    core = canonicalize_minimize(inst)
    red = kp.reduced
    result = {
        "aggregating_vector": list(aggregation_vector(red.inner.b)),
        "aggregated_row": list(kp.weights),
        "aggregated_rhs": kp.rhs,
        # reduce drops only rows with b_i = 0, each a factor of 1
        "rhs_plus_one_product": kp.rhs + 1,
        "rhs_bit_length": kp.rhs.bit_length(),
        "columns_kept": list(red.column_map),
        "columns_dropped": [
            {
                "index": j,
                "reason": _zero_column_reason(core.c[j]) if j in red.zero_columns else _PINNED,
            }
            for j in red.dropped
        ],
    }
    return result, "ok"


def _cmd_solve(inst: IPInstance, kp: KnapsackInstance, args: Namespace) -> tuple[dict, str]:
    budget = SolverBudget(max_rhs=args.budget_rhs, max_cells=args.budget_cells)
    sol = solve_original(inst, budget, knapsack=kp)
    result = {
        "status": sol.status,
        "x": list(sol.x) if sol.x is not None else None,
        "objective": sol.objective,
        "residual": list(sol.residual) if sol.residual is not None else None,
        "detail": sol.detail,
        "surrogate": {
            "weights": list(kp.weights),
            "rhs": kp.rhs,
            "costs": list(kp.costs),
            "objective_upper_bound": kp.upper_bound,
            "cost_shift": kp.shift,
            "penalty": kp.penalty,
            "columns_kept": list(kp.reduced.column_map),
        },
    }
    status = {OPTIMAL: "ok", INFEASIBLE: "infeasible", BUDGET_EXCEEDED: "budget_exceeded"}[
        sol.status
    ]
    return result, status


def _cmd_verify(inst: IPInstance, kp: KnapsackInstance, args: Namespace) -> tuple[dict, str]:
    cap = args.cap
    # the checks run on the reduced instance and the aggregated row solve solves
    inner = kp.reduced.inner
    rhs_vertex = check_rhs_vertex(inst.b, cap)
    # one enumeration and one hull of the original set serve every check
    hull = vertex_set(enumerate_feasible(inner.A, inner.b, cap))
    preserved = check_vertex_preservation(kp.weights, kp.rhs, hull, cap)
    lower = check_rhs_lower_bound(kp.rhs, hull)
    sol = solve_original(canonicalize_minimize(inst), knapsack=kp)
    oracle = brute_force_optimum(inner, hull.points)
    agree = (
        None  # a solve refused for its budget decides nothing
        if sol.status == BUDGET_EXCEEDED
        else sol.status == oracle.status and sol.objective == oracle.value
    )
    solver = {
        "holds": agree,
        "solver_status": sol.status,
        "solver_objective": sol.objective,
        "oracle_status": oracle.status,
        "oracle_objective": oracle.value,
    }
    # name, report entry, holds (None: undecided), falsification key and data
    table = [("rhs_vertex", rhs_vertex, rhs_vertex, "rhs", list(inst.b))]
    for name, o in (("vertex_preservation", preserved), ("rhs_lower_bound", lower)):
        entry = {"holds": o.holds, "vacuous": o.vacuous}
        table.append((name, entry, o.holds, "data", o.counterexample))
    table.append(("solver_matches_oracle", solver, agree, "data", solver))
    checks = {name: entry for name, entry, *_ in table}
    falsifications = [
        {"check": name, key: data} for name, _, holds, key, data in table if holds is False
    ]
    if falsifications:
        status = "falsified"
    else:
        status = "ok" if agree is not None else "budget_exceeded"
    return {"checks": checks, "falsifications": falsifications}, status


def _cmd_bound(inst: IPInstance, kp: KnapsackInstance, args: Namespace) -> tuple[dict, str]:
    point = tuple(
        parse_int(v, f"--vertex[{k}]") for k, v in enumerate(args.vertex.split(","))
    )
    ev = evaluate(inst, point)  # raises on bad dimension or negative entries
    red = kp.reduced
    base = {"point": list(point), "aggregated_rhs": kp.rhs}
    if not ev.feasible:
        base["residual"] = list(ev.residual)
        base["is_vertex"] = False
        base["detail"] = "point does not satisfy Ax = b"
        return base, "input_error"
    for j in red.zero_columns:
        if point[j] > 0:
            up = list(point)
            down = list(point)
            up[j] += 1
            down[j] -= 1
            base["is_vertex"] = False
            base["witness"] = {
                "combination": [
                    {"point": up, "weight": Fraction(1, 2)},
                    {"point": down, "weight": Fraction(1, 2)},
                ]
            }
            base["detail"] = f"free column {j} is positive; the point is a midpoint"
            return base, "input_error"
    sub_point = tuple(point[j] for j in red.column_map)
    pts = enumerate_feasible(red.inner.A, red.inner.b, args.cap)
    cited = witness(sub_point, pts.points, DEFAULT_PIVOT_CAP)
    if cited is not None:
        base["is_vertex"] = False
        base["witness"] = {
            "combination": [{"point": q, "weight": w} for q, w in cited],
            "coordinates": "kept columns only",
        }
        base["detail"] = "point is a convex combination of other feasible points"
        return base, "input_error"
    bound = vertex_lower_bound(point)
    base["is_vertex"] = True
    base["product_bound"] = bound
    base["slack"] = kp.rhs - bound
    return base, "ok"


def _cmd_oracle(inst: IPInstance, kp: KnapsackInstance, args: Namespace) -> tuple[dict, str]:
    inner = kp.reduced.inner
    pts = enumerate_feasible(inner.A, inner.b, args.cap)
    agg = enumerate_feasible((kp.weights,), (kp.rhs,), args.cap)
    result = {
        "coordinates": "kept columns only",
        "columns_kept": list(kp.reduced.column_map),
        "original": _set_block(pts, args.pivot_cap),
        "aggregated": {
            "row": list(kp.weights),
            "rhs": kp.rhs,
            **_set_block(agg, args.pivot_cap),
        },
    }
    return result, "ok"


_HANDLERS = {
    "aggregate": _cmd_aggregate,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "bound": _cmd_bound,
    "oracle": _cmd_oracle,
}


def build_parser() -> ArgumentParser:
    """A fresh parser of the five subcommands; main keeps one per process."""
    parser = _Parser(prog="knapagg", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("aggregate", help="show the single-row surrogate")
    p.add_argument("instance", help="instance JSON file")

    p = sub.add_parser("solve", help="solve exactly through the surrogate")
    p.add_argument("instance")
    p.add_argument("--budget-rhs", type=int, default=SolverBudget().max_rhs)
    p.add_argument("--budget-cells", type=int, default=SolverBudget().max_cells)

    p = sub.add_parser("verify", help="run the guarantee checks")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=DEFAULT_POINT_CAP)

    p = sub.add_parser("bound", help="certify a vertex and its product bound")
    p.add_argument("instance")
    p.add_argument("--vertex", required=True, help="comma-separated coordinates")
    p.add_argument("--cap", type=int, default=DEFAULT_POINT_CAP)

    p = sub.add_parser("oracle", help="dump feasible sets, vertices, witnesses")
    p.add_argument("instance")
    p.add_argument("--cap", type=int, default=DEFAULT_POINT_CAP)
    p.add_argument("--pivot-cap", type=int, default=DEFAULT_PIVOT_CAP)

    parser.commands = sub.choices
    return parser


@functools.cache
def _parser() -> _Parser:
    # parse_args leaves a parser as it found it: each call gets a new
    # Namespace holding only its own subcommand's defaults
    return build_parser()


def _emit(report: dict, status: str, started: float) -> int:
    report["status"] = status
    print(_render(report, "\n"))
    elapsed = time.monotonic() - started
    print(
        f"{report.get('command', '?')}: {status} ({elapsed:.3f}s)",
        file=sys.stderr,
    )
    return _STATUS_EXIT[status]


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand, write its report to stdout, return the exit code.

    main(argv) may be called any number of times in one process, as a
    library call; the argument parser is built on the first call and reused.
    """
    started = time.monotonic()
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser()
    try:
        if argv and argv[0] in parser.commands:  # straight to the subcommand's parser
            args = parser.commands[argv[0]].parse_args(argv[1:], Namespace(cmd=argv[0]))
        else:
            args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _STATUS_EXIT["input_error"]
    report: dict[str, object] = {"command": args.cmd}
    report["settings"] = {
        k: v for k, v in sorted(vars(args).items()) if k not in _ROUTING
    }
    try:
        with open(args.instance, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        report["error"] = {"type": "io", "message": str(exc)}
        return _emit(report, "input_error", started)
    try:
        inst = parse_instance(text)
        report["instance"] = {
            "digest": instance_digest(inst),
            "rows": inst.m,
            "cols": inst.n,
            "sense": inst.sense,
        }
        # the one surrogate every subcommand reads
        kp = build_knapsack(canonicalize_minimize(inst))
        result, status = _HANDLERS[args.cmd](inst, kp, args)
        report["result"] = result
        return _emit(report, status, started)
    except KnapaggError as exc:
        # a report that _render refuses has its result dropped
        report.pop("result", None)
        report["error"] = {"type": type(exc).__name__, "message": str(exc)}
        status = next(s for kind, s in _ERROR_STATUS if isinstance(exc, kind))
        return _emit(report, status, started)


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console()
