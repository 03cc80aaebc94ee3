"""Reduce equality-form nonnegative integer programs to one exact knapsack.

The package aggregates the rows of min c^T x, Ax = b, x >= 0 integer into a
single equality with running-product weights, penalizes the objective so the
surrogate's minimizer decides the original program, solves the surrogate
with an exact dynamic program, and certifies everything with a rational
arithmetic oracle (enumeration, hull vertices, brute force).
"""

from .aggregation import (
    KnapsackInstance,
    aggregate,
    aggregation_vector,
    build_knapsack,
    vertex_lower_bound,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    IterationLimit,
    KnapaggError,
    ParseError,
    UnboundedProblem,
    ValidationError,
)
from .instance import (
    BoxBounds,
    Evaluation,
    IPInstance,
    Reduction,
    box_bounds,
    canonicalize_minimize,
    evaluate,
    instance_digest,
    parse_instance,
    reduce,
    serialize_instance,
)
from .knapsack import (
    BUDGET_EXCEEDED,
    INFEASIBLE,
    OPTIMAL,
    KnapsackSolution,
    Solution,
    SolverBudget,
    solve_knapsack,
    solve_original,
)
from .oracle import (
    BruteForceResult,
    CheckOutcome,
    PointSet,
    VertexReport,
    brute_force_optimum,
    check_box_injectivity,
    check_convex_combination,
    check_rhs_lower_bound,
    check_rhs_vertex,
    check_vertex_preservation,
    enumerate_feasible,
    vertex_set,
)

__version__ = "0.1.0"

__all__ = [
    "BUDGET_EXCEEDED",
    "BoxBounds",
    "BruteForceResult",
    "CapExceeded",
    "CheckOutcome",
    "DimensionMismatch",
    "Evaluation",
    "INFEASIBLE",
    "IPInstance",
    "IterationLimit",
    "KnapaggError",
    "KnapsackInstance",
    "KnapsackSolution",
    "OPTIMAL",
    "ParseError",
    "PointSet",
    "Reduction",
    "Solution",
    "SolverBudget",
    "UnboundedProblem",
    "ValidationError",
    "VertexReport",
    "aggregate",
    "aggregation_vector",
    "box_bounds",
    "brute_force_optimum",
    "build_knapsack",
    "canonicalize_minimize",
    "check_box_injectivity",
    "check_convex_combination",
    "check_rhs_lower_bound",
    "check_rhs_vertex",
    "check_vertex_preservation",
    "enumerate_feasible",
    "evaluate",
    "instance_digest",
    "parse_instance",
    "reduce",
    "serialize_instance",
    "solve_knapsack",
    "solve_original",
    "vertex_lower_bound",
    "vertex_set",
]
