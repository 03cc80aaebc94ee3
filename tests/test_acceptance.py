"""Acceptance suite.

Seven gates, one test and one printed PASS/FAIL line each.  Every comparison
is exact integer or rational equality; the tolerance everywhere is zero.
Gates 1, 3 and 6 run randomized sweeps from a fixed seed; gate 7 rebuilds
the whole report from the same seed and demands byte-identical output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from itertools import product

import pytest

from knapagg import (
    BUDGET_EXCEEDED,
    INFEASIBLE,
    OPTIMAL,
    IPInstance,
    KnapsackInstance,
    UnboundedProblem,
    aggregate,
    aggregation_vector,
    box_bounds,
    brute_force_optimum,
    build_knapsack,
    check_box_injectivity,
    check_rhs_lower_bound,
    check_rhs_vertex,
    check_vertex_preservation,
    enumerate_feasible,
    evaluate,
    instance_digest,
    parse_instance,
    reduce,
    solve_knapsack,
    solve_original,
    vertex_set,
)
from knapagg.cli import main as cli_main

SEED = 412873650
SUITE_SIZE = 500
KNAPSACK_CASES = 1000
TELESCOPE_CASES = 200
INJECTIVITY_CAP = 2_000_000

DEMO_TEXT = json.dumps(
    {
        "A": [["1", "1", "0"], ["0", "1", "1"]],
        "b": ["1", "1"],
        "c": ["1", "1", "1"],
        "sense": "min",
    }
)


def _random_suite(rng: random.Random) -> list[IPInstance]:
    out = []
    for _ in range(SUITE_SIZE):
        m = rng.randint(1, 3)
        n = rng.randint(1, 4)
        A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(0, 4) for _ in range(m)]
        c = [rng.randint(-5, 5) for _ in range(n)]
        out.append(IPInstance.from_rows(A, b, c))
    return out


def _geometry(inst: IPInstance) -> IPInstance:
    # keep only columns with support; the hull checks do not involve costs
    kept = [j for j in range(inst.n) if any(row[j] for row in inst.A)]
    A = tuple(tuple(row[j] for j in kept) for row in inst.A)
    return IPInstance(A, inst.b, tuple(inst.c[j] for j in kept))


def _criterion1(instances: list[IPInstance]) -> dict:
    feasible = 0
    vacuous = 0
    all_hold = True
    stream = hashlib.sha256()
    for inst in instances:
        sub = _geometry(inst)
        hull = vertex_set(enumerate_feasible(sub.A, sub.b))
        preserved = check_vertex_preservation(sub, hull)
        lower = check_rhs_lower_bound(sub, hull)
        injective = True
        vertex_count = 0
        if preserved.vacuous:
            vacuous += 1
        else:
            feasible += 1
            a, a0 = aggregate(sub.A, sub.b)
            report = vertex_set(enumerate_feasible((a,), (a0,)))
            vertex_count = len(report.vertices)
            for v in report.vertices:
                if not check_box_injectivity(a, v, INJECTIVITY_CAP):
                    injective = False
        ok = preserved.holds and lower.holds and injective
        all_hold = all_hold and ok
        stream.update(
            json.dumps(
                [
                    instance_digest(inst),
                    preserved.holds,
                    preserved.vacuous,
                    lower.holds,
                    injective,
                    vertex_count,
                ]
            ).encode()
        )
    return {
        "instances": len(instances),
        "feasible": feasible,
        "vacuous": vacuous,
        "all_hold": all_hold,
        "outcome_digest": stream.hexdigest(),
    }


def _criterion2() -> dict:
    checked = 0
    all_hold = True
    for b in product(range(5), repeat=4):
        checked += 1
        if not check_rhs_vertex(b):
            all_hold = False
    return {"cases": checked, "all_hold": all_hold}


def _criterion3(instances: list[IPInstance]) -> dict:
    counts = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    all_match = True
    stream = hashlib.sha256()
    for inst in instances:
        try:
            sol = solve_original(inst)
            solver_status = sol.status
            solver_value = sol.objective
        except UnboundedProblem:
            solver_status = "unbounded"
            solver_value = None
        # rows as given, so the reference also checks the row restriction
        geo = _geometry(inst)
        res = brute_force_optimum(geo, enumerate_feasible(geo.A, geo.b))
        oracle_status = res.status
        oracle_value = res.value
        free = [j for j in range(inst.n) if not any(row[j] for row in inst.A)]
        if res.status == OPTIMAL and any(inst.c[j] < 0 for j in free):
            # a feasible program with a negative-cost zero column
            oracle_status = "unbounded"
            oracle_value = None
        match = solver_status == oracle_status and solver_value == oracle_value
        if solver_status == OPTIMAL:
            ev = evaluate(inst, sol.x)
            match = match and ev.feasible and ev.objective == sol.objective
        counts[solver_status] = counts.get(solver_status, 0) + 1
        all_match = all_match and match
        stream.update(
            json.dumps(
                [instance_digest(inst), solver_status, str(solver_value)]
            ).encode()
        )
    return {
        "instances": len(instances),
        "by_status": counts,
        "all_match": all_match,
        "outcome_digest": stream.hexdigest(),
    }


def _criterion4(rng: random.Random) -> dict:
    identity_holds = True
    permutation_invariant = True
    row_changed = 0
    for _ in range(TELESCOPE_CASES):
        m = rng.randint(1, 6)
        b = [rng.randint(0, 10**6) for _ in range(m)]
        f = aggregation_vector(b)
        lhs = sum(fi * bi for fi, bi in zip(f, b))
        prod = 1
        for bi in b:
            prod *= bi + 1
        if lhs != prod - 1:
            identity_holds = False
        n = rng.randint(1, 3)
        A = [[rng.randint(0, 9) for _ in range(n)] for _ in range(m)]
        for j in range(n):
            A[rng.randrange(m)][j] = max(1, A[rng.randrange(m)][j])
        perm = list(range(m))
        rng.shuffle(perm)
        base = IPInstance.from_rows(A, b, [0] * n)
        shuf = IPInstance.from_rows([A[i] for i in perm], [b[i] for i in perm], [0] * n)
        a1, a01 = aggregate(base.A, base.b)
        a2, a02 = aggregate(shuf.A, shuf.b)
        if a01 != a02:
            permutation_invariant = False
        if a1 != a2:
            row_changed += 1
    return {
        "cases": TELESCOPE_CASES,
        "identity_holds": identity_holds,
        "permutation_invariant": permutation_invariant,
        "aggregated_row_changed": row_changed,
    }


def _run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue()


def _criterion5(tmp_dir) -> dict:
    inst = parse_instance(DEMO_TEXT)
    f = aggregation_vector(inst.b)
    kp = build_knapsack(inst)
    dp = solve_knapsack(kp)
    sol = solve_original(inst)
    red = reduce(inst)
    box = box_bounds(red.inner)
    hull = vertex_set(enumerate_feasible(red.inner.A, red.inner.b))
    preserved = check_vertex_preservation(red.inner, hull)
    lower = check_rhs_lower_bound(red.inner, hull)
    path = tmp_dir / "demo.json"
    path.write_text(DEMO_TEXT)
    solve_code, solve_out = _run_cli(["solve", str(path)])
    verify_code, verify_out = _run_cli(["verify", str(path)])
    bound_code, bound_out = _run_cli(["bound", str(path), "--vertex", "1,0,1"])
    checks = {
        "aggregating_vector": f == (1, 2),
        "aggregated_row": kp.weights == (1, 3, 2),
        "aggregated_rhs": kp.rhs == 3,
        "box": box.upper == (1, 1, 1),
        "upper_bound": kp.upper_bound == 3,
        "shift": kp.shift == 0,
        "penalty": kp.penalty == 4,
        "penalized_costs": kp.costs == (5, 9, 5),
        "dp_point": dp.x == (0, 1, 0),
        "dp_value": dp.value == 9,
        "solution_point": sol.x == (0, 1, 0),
        "solution_objective": sol.objective == 1,
        "rhs_is_vertex": check_rhs_vertex(inst.b),
        "vertices_preserved": preserved.holds and not preserved.vacuous,
        "rhs_lower_bound": lower.holds,
        "cli_solve_exit": solve_code == 0,
        "cli_verify_exit": verify_code == 0,
        "cli_bound_exit": bound_code == 0,
        "cli_bound_value": '"product_bound": "3"' in bound_out,
        "cli_slack": '"slack": "0"' in bound_out,
    }
    return {
        "checks": checks,
        "all_hold": all(checks.values()),
        "solve_report_digest": hashlib.sha256(solve_out.encode()).hexdigest(),
        "verify_report_digest": hashlib.sha256(verify_out.encode()).hexdigest(),
    }


def _knapsack_shell(weights, rhs, costs) -> KnapsackInstance:
    shell = IPInstance.from_rows([list(weights)], [rhs], list(costs))
    return KnapsackInstance(
        weights=tuple(weights),
        rhs=rhs,
        costs=tuple(costs),
        upper_bound=0,
        shift=0,
        penalty=0,
        reduced=reduce(shell),
        original=shell,
    )


def _enum_min(weights, rhs, costs):
    # independent exhaustive minimum, unrolled for up to four variables
    n = len(weights)
    best = None
    if n == 1:
        q, r = divmod(rhs, weights[0])
        return costs[0] * q if r == 0 else None
    if n == 2:
        w0, w1 = weights
        c0, c1 = costs
        for x0 in range(rhs // w0 + 1):
            q, r = divmod(rhs - x0 * w0, w1)
            if r == 0:
                v = c0 * x0 + c1 * q
                if best is None or v < best:
                    best = v
        return best
    if n == 3:
        w0, w1, w2 = weights
        c0, c1, c2 = costs
        for x0 in range(rhs // w0 + 1):
            r0 = rhs - x0 * w0
            v0 = c0 * x0
            for x1 in range(r0 // w1 + 1):
                q, r = divmod(r0 - x1 * w1, w2)
                if r == 0:
                    v = v0 + c1 * x1 + c2 * q
                    if best is None or v < best:
                        best = v
        return best
    w0, w1, w2, w3 = weights
    c0, c1, c2, c3 = costs
    for x0 in range(rhs // w0 + 1):
        r0 = rhs - x0 * w0
        v0 = c0 * x0
        for x1 in range(r0 // w1 + 1):
            r1 = r0 - x1 * w1
            v1 = v0 + c1 * x1
            for x2 in range(r1 // w2 + 1):
                q, r = divmod(r1 - x2 * w2, w3)
                if r == 0:
                    v = v1 + c2 * x2 + c3 * q
                    if best is None or v < best:
                        best = v
    return best


def _criterion6(rng: random.Random) -> dict:
    all_match = True
    optimal = 0
    infeasible = 0
    stream = hashlib.sha256()
    for _ in range(KNAPSACK_CASES):
        n = rng.randint(1, 4)
        weights = [rng.randint(1, 9) for _ in range(n)]
        rhs = rng.randint(0, 200)
        costs = [rng.randint(0, 20) for _ in range(n)]
        sol = solve_knapsack(_knapsack_shell(weights, rhs, costs))
        expect = _enum_min(weights, rhs, costs)
        if expect is None:
            ok = sol.status == INFEASIBLE
            infeasible += 1
        else:
            ok = (
                sol.status == OPTIMAL
                and sol.value == expect
                and sum(w * x for w, x in zip(weights, sol.x)) == rhs
                and sum(cv * x for cv, x in zip(costs, sol.x)) == expect
            )
            optimal += 1
        all_match = all_match and ok
        stream.update(
            json.dumps([weights, rhs, costs, sol.status, str(sol.value)]).encode()
        )
    return {
        "cases": KNAPSACK_CASES,
        "optimal": optimal,
        "infeasible": infeasible,
        "all_match": all_match,
        "outcome_digest": stream.hexdigest(),
    }


def build_report(tmp_dir) -> tuple[dict, dict]:
    rng = random.Random(SEED)
    suite = _random_suite(rng)
    timings: dict[str, float] = {}
    report: dict[str, dict] = {"seed": SEED}

    t = time.monotonic()
    report["criterion1"] = _criterion1(suite)
    timings["criterion1"] = time.monotonic() - t

    t = time.monotonic()
    report["criterion2"] = _criterion2()
    timings["criterion2"] = time.monotonic() - t

    t = time.monotonic()
    report["criterion3"] = _criterion3(suite)
    timings["criterion3"] = time.monotonic() - t

    t = time.monotonic()
    report["criterion4"] = _criterion4(random.Random(SEED + 1))
    timings["criterion4"] = time.monotonic() - t

    t = time.monotonic()
    report["criterion5"] = _criterion5(tmp_dir)
    timings["criterion5"] = time.monotonic() - t

    t = time.monotonic()
    report["criterion6"] = _criterion6(random.Random(SEED + 2))
    timings["criterion6"] = time.monotonic() - t

    return report, timings


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    return build_report(tmp_path_factory.mktemp("accept"))


def _verdict(number: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    state = "PASS" if ok and elapsed <= budget else "FAIL"
    print(
        f"criterion {number} ({label}): {state} "
        f"[{elapsed:.2f}s, budget {budget:.0f}s, tolerance 0]"
    )


def test_criterion1_randomized_guarantees(first_run):
    report, timings = first_run
    data = report["criterion1"]
    ok = data["all_hold"] and data["instances"] >= 500 and data["feasible"] > 0
    _verdict(1, "hull guarantees on random suite", ok, timings["criterion1"], 120)
    assert data["instances"] >= 500
    assert data["feasible"] > 0, "suite produced no feasible instance"
    assert data["all_hold"], "a hull guarantee failed on the random suite"
    assert timings["criterion1"] <= 120


def test_criterion2_exhaustive_rhs_vertex(first_run):
    report, timings = first_run
    data = report["criterion2"]
    ok = data["all_hold"] and data["cases"] == 625
    _verdict(2, "exhaustive rhs vertex, four rows", ok, timings["criterion2"], 60)
    assert data["cases"] == 625
    assert data["all_hold"]
    assert timings["criterion2"] <= 60


def test_criterion3_solver_equals_oracle(first_run):
    report, timings = first_run
    data = report["criterion3"]
    ok = data["all_match"]
    _verdict(3, "pipeline equals brute force", ok, timings["criterion3"], 120)
    assert data["by_status"]["optimal"] > 0
    assert data["by_status"]["infeasible"] > 0
    assert data["all_match"]
    assert timings["criterion3"] <= 120


def test_criterion4_telescoping_identity(first_run):
    report, timings = first_run
    data = report["criterion4"]
    ok = data["identity_holds"] and data["permutation_invariant"]
    _verdict(4, "rhs telescoping and permutation", ok, timings["criterion4"], 10)
    assert data["cases"] == 200
    assert data["identity_holds"]
    assert data["permutation_invariant"]
    assert data["aggregated_row_changed"] > 0
    assert timings["criterion4"] <= 10


def test_criterion5_worked_example(first_run):
    report, timings = first_run
    data = report["criterion5"]
    ok = data["all_hold"]
    _verdict(5, "worked three-variable example", ok, timings["criterion5"], 60)
    failed = [name for name, good in data["checks"].items() if not good]
    assert not failed, f"worked example drifted: {failed}"
    assert timings["criterion5"] <= 60


def test_criterion6_dp_versus_enumeration(first_run):
    report, timings = first_run
    data = report["criterion6"]
    ok = data["all_match"] and data["cases"] == 1000
    _verdict(6, "table versus enumeration", ok, timings["criterion6"], 60)
    assert data["cases"] == 1000
    assert data["optimal"] > 0 and data["infeasible"] > 0
    assert data["all_match"]
    assert timings["criterion6"] <= 60


def test_criterion7_deterministic_reports(first_run, tmp_path_factory):
    report, _ = first_run
    again, timings = build_report(tmp_path_factory.mktemp("accept-again"))
    first_bytes = json.dumps(report, sort_keys=True).encode()
    second_bytes = json.dumps(again, sort_keys=True).encode()
    ok = first_bytes == second_bytes
    _verdict(7, "byte-identical reruns", ok, sum(timings.values()), 300)
    assert ok, "rerunning the suite with the same seed changed the report"
