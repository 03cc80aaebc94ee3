"""Seeded instance generators for the four benchmark workloads.

Each generator takes the seed and returns a list of Case objects: one CLI
call each, with the instance, the arguments and the expected outcome.  The
expectation comes from the construction (a planted feasible point) or from
the independent enumeration in checks.py, never from the solver.  The
program under test sees only the JSON files written from these cases.

Why each workload exists is recorded in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field

import checks

DEFAULT_MAX_RHS = 10_000_000  # SolverBudget().max_rhs; larger rungs are refused

# solve-ladder: aggregated rhs log-spaced over this range, then two rungs
# just over the default max_rhs budget.
LADDER_RUNGS = 12
LADDER_RHS = (1e3, 3e6)
LADDER_REFUSED = (1.05e7, 1.3e7)
# solve-wide: the same shape, smaller tables, ~100-bit costs.
WIDE_RUNGS = 10
WIDE_RHS = (1e3, 1e6)
# verify-oracle: (lo, hi, quota) bands of the original feasible-point
# count, which sets a call's cost at this scale, with a fixed number of
# instances in each, plus a few infeasible ones; every instance has fewer
# than VERIFY_MAX_AGG_POINTS aggregated points.  README.md explains both.
VERIFY_BANDS = (
    (1, 2, 24), (2, 3, 24), (3, 4, 24), (4, 5, 12), (5, 6, 12), (6, 7, 8),
    (7, 8, 8), (8, 9, 8), (9, 13, 20), (13, 20, 16), (20, 30, 10), (30, 50, 6),
    (50, 100, 4),
)
VERIFY_MAX_AGG_POINTS = 100
VERIFY_INFEASIBLE = 8
# cli-mixed: (command, wanted outcome, calls) and the aggregated-point cap
# for `oracle` and `bound` calls, whose exact LPs grow with the point count.
CLI_MIX = (
    ("solve", "optimal", 160),
    ("solve", "infeasible", 64),
    ("solve", "unbounded", 32),
    ("aggregate", "ok", 128),
    ("bound", "ok", 128),
    ("oracle", "ok", 128),
)
# cli-mixed: [lo, hi) size bands each kind of call cycles through, so the
# work in a pass hardly changes with the seed: table cells n * (rhs + 1)
# for the optimal and infeasible `solve` calls, aggregated points for
# `bound` and `oracle`, whose exact LPs grow with the point count.  Their
# cap of 10 points keeps those calls small, as the workload intends, and
# keeps the slowest oracle calls, which set call_tail_s, alike.
CLI_SOLVE_CELLS = ((1, 16), (16, 128), (128, 1024), (1024, 5000))
CLI_LP_POINTS = ((1, 3), (3, 6), (6, 10))
# Passes a run always makes, however slow the host.
MIN_PASSES = {"solve-ladder": 3, "solve-wide": 4, "verify-oracle": 3, "cli-mixed": 3}


@dataclass
class Case:
    name: str
    cmd: str
    A: list
    b: list
    c: list
    sense: str = "min"
    extra: tuple = ()
    expect: dict = field(default_factory=dict)

    def document(self) -> bytes:
        """The instance file the CLI reads: every number a decimal string."""
        doc = {
            "A": [[str(v) for v in row] for row in self.A],
            "b": [str(v) for v in self.b],
            "c": [str(v) for v in self.c],
            "sense": self.sense,
        }
        return json.dumps(doc, separators=(",", ":"), sort_keys=True).encode()

    def digest(self) -> str:
        return hashlib.sha256(self.document()).hexdigest()

    def argv(self, path: str) -> list[str]:
        return [self.cmd, path, *self.extra]

    @property
    def cells(self) -> int:
        """n * (rhs + 1) of the table this call fills; 0 if it fills none."""
        if self.cmd not in ("solve", "verify"):
            return 0
        if self.expect["status"] in ("unbounded", "budget_exceeded"):
            return 0
        n, rhs = checks.surrogate_shape(self.A, self.b)
        return n * (rhs + 1)


def _log_targets(lo: float, hi: float, count: int) -> list[float]:
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    return [math.exp(math.log(lo) + k * step) for k in range(count)]


def _factor_rhs(rng: random.Random, target: float, m: int) -> list[int]:
    """b with m positive entries and prod(b_i + 1) close to target."""
    base = target ** (1.0 / m)
    factors = [max(2, round(base * rng.uniform(0.8, 1.25))) for _ in range(m - 1)]
    factors.append(max(2, round(target / math.prod(factors))))
    return [f - 1 for f in factors]


def _planted(rng, b, n, cost):
    """A, c and a planted x0 >= 0 with A x0 = b.

    n - m random columns (entries 0-3, never all zero) take a random share
    of b; m unit columns take the rest, so every table value is reachable.
    Columns are shuffled so the unit columns have no fixed position.
    """
    m = len(b)
    cols, x0, rem = [], [], list(b)
    for _ in range(n - m):
        col = [rng.randint(0, 3) for _ in range(m)]
        if not any(col):
            col[rng.randrange(m)] = rng.randint(1, 3)
        cap = min(rem[i] // col[i] for i in range(m) if col[i])
        v = rng.randint(0, cap // 2)
        rem = [rem[i] - v * col[i] for i in range(m)]
        cols.append(col)
        x0.append(v)
    for i in range(m):
        cols.append([int(r == i) for r in range(m)])
        x0.append(rem[i])
    order = list(range(n))
    rng.shuffle(order)
    A = [[cols[j][i] for j in order] for i in range(m)]
    x0 = [x0[j] for j in order]
    c = [cost(rng) for _ in range(n)]
    return A, c, x0


def _ladder(rng, targets, refused, cost, prefix):
    cases = []
    for k, target in enumerate(list(targets) + list(refused)):
        m = 2 + k % 2
        b = _factor_rhs(rng, target, m)
        A, c, x0 = _planted(rng, b, 6, cost)
        over = checks.rhs_plus_one(b) - 1 > DEFAULT_MAX_RHS
        if over != (k >= len(targets)):
            raise AssertionError(f"rung {k} lands on the wrong side of max_rhs")
        expect = (
            {"status": "budget_exceeded"}
            if over
            else {"status": "optimal", "objective_at_most": sum(ci * xi for ci, xi in zip(c, x0))}
        )
        cases.append(Case(f"{prefix}{k:02d}", "solve", A, b, c, expect=expect))
    return cases


def solve_ladder(seed: int) -> list[Case]:
    rng = random.Random(f"solve-ladder:{seed}")
    return _ladder(
        rng,
        _log_targets(*LADDER_RHS, LADDER_RUNGS),
        LADDER_REFUSED,
        lambda r: r.randint(1, 50),
        "ladder-",
    )


def solve_wide(seed: int) -> list[Case]:
    rng = random.Random(f"solve-wide:{seed}")
    return _ladder(
        rng,
        _log_targets(*WIDE_RHS, WIDE_RUNGS),
        (),
        lambda r: r.randint(2**99, 2**100),
        "wide-",
    )


def verify_oracle(seed: int) -> list[Case]:
    """Stratified 2x5 instances: the infeasible ones first, then by band.

    Rejection sampling: draw A (entries 0-3, no zero column) and b (4-20)
    until each band of original point count holds its quota of instances
    and VERIFY_INFEASIBLE infeasible ones are found.  The infeasible ones
    are the cheapest calls, smallest rhs first, so the fresh-process runs
    on the first case time start-up, not the oracle.
    """
    rng = random.Random(f"verify-oracle:{seed}")
    bands = [[] for _ in VERIFY_BANDS]
    infeasible = []
    while len(infeasible) < VERIFY_INFEASIBLE or any(
        len(band) < quota for band, (_, _, quota) in zip(bands, VERIFY_BANDS)
    ):
        A = [[rng.randint(0, 3) for _ in range(5)] for _ in range(2)]
        b = [rng.randint(4, 20) for _ in range(2)]
        c = [rng.randint(-5, 9) for _ in range(5)]
        if len(checks.nonzero_columns(A)) < 5:
            continue
        if checks.count_aggregated_points(A, b, range(5)) >= VERIFY_MAX_AGG_POINTS:
            continue
        points = checks.count_points(A, b, range(5))
        if not points:
            if len(infeasible) < VERIFY_INFEASIBLE:
                infeasible.append((A, b, c))
            continue
        slot = next(
            (k for k, (lo, hi, _) in enumerate(VERIFY_BANDS) if lo <= points < hi), None
        )
        if slot is not None and len(bands[slot]) < VERIFY_BANDS[slot][2]:
            bands[slot].append((A, b, c))
    infeasible.sort(key=lambda inst: checks.rhs_plus_one(inst[1]))
    drawn = infeasible + [inst for band in bands for inst in band]
    return [
        Case(f"verify-{k:03d}", "verify", A, b, c, expect={"status": "ok"})
        for k, (A, b, c) in enumerate(drawn)
    ]


def _tiny(rng: random.Random):
    """m 1-3, n 2-6, A 0-3 with some zero columns, b 0-8, either sense."""
    m, n = rng.randint(1, 3), rng.randint(2, 6)
    A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
    for j in range(n):
        if rng.random() < 0.15:
            for row in A:
                row[j] = 0
    b = [rng.randint(0, 8) for _ in range(m)]
    c = [rng.randint(-5, 9) for _ in range(n)]
    return A, b, c, rng.choice(("min", "max"))


def _mixed_case(rng, cmd, want, name, band=None):
    """Draw tiny instances until one has the wanted outcome for cmd.

    band, when given, is the [lo, hi) range the call's size must fall in:
    table cells for `solve`, aggregated points for `bound` and `oracle`.
    """
    while True:
        A, b, c, sense = _tiny(rng)
        cols = checks.nonzero_columns(A)
        if not cols:
            continue
        status, objective = checks.brute_force(A, b, c, sense)
        if status == "infeasible" and checks.negative_zero_column(A, c, sense):
            continue  # the CLI stops at that column before it can find out
        if cmd == "solve" and status == want:
            expect = {"status": want}
            if want == "optimal":
                expect["objective"] = objective
            case = Case(name, cmd, A, b, c, sense, expect=expect)
            if band is None or band[0] <= case.cells < band[1]:
                return case
            continue
        if status == "unbounded":
            continue  # only solve is given an unbounded instance
        if cmd == "aggregate":
            return Case(name, cmd, A, b, c, sense, expect={"status": "ok"})
        if cmd in ("bound", "oracle") and not (
            band[0] <= checks.count_aggregated_points(A, b, cols) < band[1]
        ):
            continue
        if cmd == "bound" and status == "optimal":
            vertex = checks.lex_max_point(A, b)
            extra = ("--vertex", ",".join(map(str, vertex)))
            return Case(name, cmd, A, b, c, sense, extra, {"status": "ok", "vertex": vertex})
        if cmd == "oracle":
            count = len(checks.enumerate_points(A, b, cols))
            return Case(name, cmd, A, b, c, sense, expect={"status": "ok", "original_points": count})


def cli_mixed(seed: int) -> list[Case]:
    """Tiny instances over four subcommands, in a seeded random order."""
    rng = random.Random(f"cli-mixed:{seed}")
    bands = {"solve": CLI_SOLVE_CELLS, "bound": CLI_LP_POINTS, "oracle": CLI_LP_POINTS}
    cases = []
    for cmd, want, count in CLI_MIX:
        for k in range(count):
            cycle = bands.get(cmd) if want != "unbounded" else None
            band = cycle[k % len(cycle)] if cycle else None
            cases.append(_mixed_case(rng, cmd, want, f"{cmd}-{want}-{k:03d}", band))
    rng.shuffle(cases)
    # The fresh-process runs use the first case; make it a cheap aggregate.
    first = next(k for k, case in enumerate(cases) if case.cmd == "aggregate")
    cases[0], cases[first] = cases[first], cases[0]
    return cases


WORKLOADS = {
    "solve-ladder": solve_ladder,
    "solve-wide": solve_wide,
    "verify-oracle": verify_oracle,
    "cli-mixed": cli_mixed,
}
