from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import knapagg
import knapagg.oracle
from knapagg import (
    IPInstance,
    brute_force_optimum,
    canonicalize_minimize,
    check_rhs_lower_bound,
    check_rhs_vertex,
    check_vertex_preservation,
    preprocess_zero_columns,
    serialize_instance,
    solve_original,
)
from knapagg.cli import main

DEMO = {
    "A": [["1", "1", "0"], ["0", "1", "1"]],
    "b": ["1", "1"],
    "c": ["1", "1", "1"],
    "sense": "min",
}


def _write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _src_env():
    src = str(Path(knapagg.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_aggregate_report(tmp_path, capsys):
    code, rep = _run(capsys, ["aggregate", _write(tmp_path, DEMO)])
    assert code == 0
    assert rep["status"] == "ok"
    r = rep["result"]
    assert r["aggregating_vector"] == ["1", "2"]
    assert r["aggregated_row"] == ["1", "3", "2"]
    assert r["aggregated_rhs"] == "3"
    assert r["rhs_plus_one_product"] == "4"
    assert r["columns_dropped"] == []


def test_solve_report(tmp_path, capsys):
    code, rep = _run(capsys, ["solve", _write(tmp_path, DEMO)])
    assert code == 0
    r = rep["result"]
    assert r["status"] == "optimal"
    assert r["x"] == ["0", "1", "0"]
    assert r["objective"] == "1"
    s = r["surrogate"]
    assert s["weights"] == ["1", "3", "2"]
    assert s["costs"] == ["5", "9", "5"]
    assert s["objective_upper_bound"] == "3"
    assert s["cost_shift"] == "0"
    assert s["penalty"] == "4"


def test_solve_maximize(tmp_path, capsys):
    doc = dict(DEMO, c=["-1", "-1", "-1"], sense="max")
    code, rep = _run(capsys, ["solve", _write(tmp_path, doc)])
    assert code == 0
    assert rep["result"]["objective"] == "-1"
    assert rep["result"]["x"] == ["0", "1", "0"]


def test_solve_infeasible_exit_and_residual(tmp_path, capsys):
    doc = {"A": [["1", "0"], ["0", "2"]], "b": ["1", "1"], "c": ["0", "0"]}
    code, rep = _run(capsys, ["solve", _write(tmp_path, doc)])
    assert code == 1
    assert rep["status"] == "infeasible"
    assert rep["result"]["residual"] == ["2", "-1"]


def test_solve_unbounded_exit(tmp_path, capsys):
    doc = {"A": [["1", "0"]], "b": ["1"], "c": ["0", "-1"]}
    code, rep = _run(capsys, ["solve", _write(tmp_path, doc)])
    assert code == 2
    assert rep["status"] == "unbounded"
    assert rep["error"]["type"] == "UnboundedProblem"


def test_solve_budget_exit(tmp_path, capsys):
    doc = {"A": [["1"]], "b": ["1000"], "c": ["1"]}
    code, rep = _run(capsys, ["solve", _write(tmp_path, doc), "--budget-rhs", "10"])
    assert code == 3
    assert rep["status"] == "budget_exceeded"
    assert "prod(b_i + 1) - 1" in rep["result"]["detail"]


def test_malformed_input_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("definitely not json")
    code, rep = _run(capsys, ["solve", str(path)])
    assert code == 4
    assert rep["status"] == "input_error"


def test_missing_file_exit(tmp_path, capsys):
    code, rep = _run(capsys, ["solve", str(tmp_path / "nope.json")])
    assert code == 4


def test_negative_matrix_entry_exit(tmp_path, capsys):
    doc = dict(DEMO, A=[["-1", "1", "0"], ["0", "1", "1"]])
    code, rep = _run(capsys, ["solve", _write(tmp_path, doc)])
    assert code == 4
    assert rep["error"]["type"] == "ValidationError"


def test_verify_all_checks_pass(tmp_path, capsys):
    code, rep = _run(capsys, ["verify", _write(tmp_path, DEMO)])
    assert code == 0
    checks = rep["result"]["checks"]
    assert checks["rhs_vertex"] is True
    assert checks["vertex_preservation"] == {"holds": True, "vacuous": False}
    assert checks["rhs_lower_bound"] == {"holds": True, "vacuous": False}
    assert checks["solver_matches_oracle"]["holds"] is True
    assert rep["result"]["falsifications"] == []


def test_verify_vacuous_on_infeasible(tmp_path, capsys):
    doc = {"A": [["1", "0"], ["0", "2"]], "b": ["1", "1"], "c": ["0", "0"]}
    code, rep = _run(capsys, ["verify", _write(tmp_path, doc)])
    assert code == 0
    checks = rep["result"]["checks"]
    assert checks["vertex_preservation"]["vacuous"] is True
    assert checks["solver_matches_oracle"]["holds"] is True
    assert checks["solver_matches_oracle"]["solver_status"] == "infeasible"


def test_verify_cap_exit(tmp_path, capsys):
    doc = {"A": [["1", "1"]], "b": ["1000"], "c": ["1", "1"]}
    code, rep = _run(capsys, ["verify", _write(tmp_path, doc), "--cap", "50"])
    assert code == 3
    assert rep["status"] == "cap_exceeded"


def test_bound_vertex(tmp_path, capsys):
    code, rep = _run(capsys, ["bound", _write(tmp_path, DEMO), "--vertex", "1,0,1"])
    assert code == 0
    r = rep["result"]
    assert r["is_vertex"] is True
    assert r["product_bound"] == "3"
    assert r["aggregated_rhs"] == "3"
    assert r["slack"] == "0"


def test_bound_zero_rhs(tmp_path, capsys):
    doc = {"A": [["1", "1"]], "b": ["0"], "c": ["0", "0"]}
    code, rep = _run(capsys, ["bound", _write(tmp_path, doc), "--vertex", "0,0"])
    assert code == 0
    assert rep["result"]["product_bound"] == "0"
    assert rep["result"]["slack"] == "0"


def test_bound_rejects_non_vertex(tmp_path, capsys):
    doc = {"A": [["1", "3"]], "b": ["11"], "c": ["0", "0"]}
    code, rep = _run(capsys, ["bound", _write(tmp_path, doc), "--vertex", "5,2"])
    assert code == 4
    r = rep["result"]
    assert r["is_vertex"] is False
    assert r["witness"]["combination"]
    weights = [w["weight"] for w in r["witness"]["combination"]]
    assert all("/" in w or w == "1" for w in weights)


def test_bound_rejects_infeasible_point(tmp_path, capsys):
    code, rep = _run(capsys, ["bound", _write(tmp_path, DEMO), "--vertex", "1,1,1"])
    assert code == 4
    assert rep["result"]["is_vertex"] is False
    assert rep["result"]["residual"] == ["1", "1"]


def test_bound_rejects_positive_free_column(tmp_path, capsys):
    doc = {"A": [["1", "0"]], "b": ["2"], "c": ["0", "0"]}
    code, rep = _run(capsys, ["bound", _write(tmp_path, doc), "--vertex", "2,1"])
    assert code == 4
    assert rep["result"]["is_vertex"] is False
    assert "free column" in rep["result"]["detail"]


def test_bound_usage_error(tmp_path, capsys):
    code, _ = _run(capsys, ["bound", _write(tmp_path, DEMO), "--vertex", "a,b,c"])
    assert code == 4


def test_oracle_dump(tmp_path, capsys):
    code, rep = _run(capsys, ["oracle", _write(tmp_path, DEMO)])
    assert code == 0
    r = rep["result"]
    assert r["original"]["points"] == [["0", "1", "0"], ["1", "0", "1"]]
    assert r["original"]["vertices"] == [["0", "1", "0"], ["1", "0", "1"]]
    agg = r["aggregated"]
    assert agg["row"] == ["1", "3", "2"]
    assert agg["rhs"] == "3"
    assert agg["points"] == [["0", "1", "0"], ["1", "0", "1"], ["3", "0", "0"]]
    assert agg["vertices"] == [["0", "1", "0"], ["1", "0", "1"], ["3", "0", "0"]]


def test_oracle_witnesses_are_exact(tmp_path, capsys):
    doc = {"A": [["1", "3"]], "b": ["11"], "c": ["0", "0"]}
    code, rep = _run(capsys, ["oracle", _write(tmp_path, doc)])
    assert code == 0
    block = rep["result"]["original"]
    assert block["vertices"] == [["2", "3"], ["11", "0"]]
    wit = block["witnesses"]
    assert set(wit) == {"5,2", "8,1"}
    for entry in wit["5,2"]:
        assert entry["weight"] == "1/2"


def test_unknown_flag_is_input_error(tmp_path, capsys):
    code = main(["solve", _write(tmp_path, DEMO), "--frobnicate"])
    capsys.readouterr()
    assert code == 4


def test_reports_are_byte_identical(tmp_path, capsys):
    path = _write(tmp_path, DEMO)
    main(["verify", path])
    first = capsys.readouterr().out
    main(["verify", path])
    second = capsys.readouterr().out
    assert first == second
    main(["oracle", path])
    third = capsys.readouterr().out
    main(["oracle", path])
    fourth = capsys.readouterr().out
    assert third == fourth


def test_small_solve_does_not_import_numpy(tmp_path):
    # a fresh process pays about 0.1 s for numpy, which a table of a few
    # thousand cells never earns back, so the CLI must not import it for one
    doc = dict(DEMO, b=["40", "60"])
    script = (
        "import sys\n"
        "from knapagg.cli import main\n"
        "code = main(['solve', sys.argv[1]])\n"
        "assert 'numpy' not in sys.modules, 'solve imported numpy'\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, _write(tmp_path, doc)],
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)["result"]
    assert result["surrogate"]["rhs"] == "2500"
    assert result["x"] == ["0", "40", "20"]


# sha256 of the stdout of `oracle` and `verify`, recorded when the exact LP
# still pivoted over Fraction and verify enumerated the original set three
# times; reruns of one build cannot show a drift between builds, these can
PINNED = {
    "demo": DEMO,
    # a non-vertex whose witness weights are thirds, found by the LP
    "thirds": {
        "A": [["6", "4", "2", "1"], ["5", "0", "3", "1"]],
        "b": ["19", "16"],
        "c": ["3", "-1", "2", "5"],
        "sense": "min",
    },
    "infeasible": {
        "A": [["2", "4"], ["1", "1"]],
        "b": ["3", "1"],
        "c": ["1", "1"],
        "sense": "min",
    },
}
PINNED_SHA256 = {
    ("demo", "oracle"): "12501c81f5d03e9f5d1fd29f32e369a40d67a3704dcfd2d5e83388d66f9780d3",
    ("demo", "verify"): "79e0c6f8751626f9186180b6a94122c1a379e259b203087d4fb4af2ca46542c6",
    ("thirds", "oracle"): "b9252a4ba42f0349db54bd3f26c4d57939fc9e5d08d6eb8e77ed14cf6cc1dfa3",
    ("thirds", "verify"): "121c767ced5222a2ea85e5a5b1a8b3c98104a4fafb84cfdf4fa9d100da3fad65",
    ("infeasible", "oracle"): "58222bd046304cf2ccb5301605f9d349b4f882ddae413fd6fbd240d232d10b86",
    ("infeasible", "verify"): "895be99eaee4641e470bd93f8ebf9c94031c2de308c753666cb185f3b2492013",
}


@pytest.mark.parametrize("case,cmd", sorted(PINNED_SHA256))
def test_report_bytes_are_pinned(tmp_path, capsys, case, cmd):
    assert main([cmd, _write(tmp_path, PINNED[case])]) == 0
    out = capsys.readouterr().out
    if (case, cmd) == ("thirds", "oracle"):
        assert '"weight": "1/3"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[case, cmd]


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(knapagg.oracle, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(knapagg.oracle, name, counted)
    return calls


@pytest.mark.parametrize("case,hulls,enumerations", [
    ("demo", 1, 3),
    ("infeasible", 0, 2),
])
def test_verify_enumerates_and_hulls_the_original_set_once(
    tmp_path, capsys, monkeypatch, case, hulls, enumerations
):
    hulled = _count_calls(monkeypatch, "vertex_set")
    enumerated = _count_calls(monkeypatch, "enumerate_feasible")
    code, rep = _run(capsys, ["verify", _write(tmp_path, PINNED[case])])
    assert code == 0 and rep["status"] == "ok"
    assert len(hulled) == hulls
    assert len(enumerated) == enumerations


def _as_report(value):
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    return {k: _as_report(v) for k, v in value.items()}


def test_verify_checks_equal_the_public_checks(tmp_path, capsys):
    rng = random.Random(4242)
    feasible = 0
    for k in range(50):
        n = rng.randint(2, 4)
        A = [[rng.randint(0, 3) for _ in range(n)] for _ in range(2)]
        b = [rng.randint(0, 4) for _ in range(2)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        for j in range(n):
            if A[0][j] == A[1][j] == 0:
                c[j] = 0  # a free column that improves the objective is unbounded
        inst = IPInstance.from_rows(A, b, c, rng.choice(("min", "max")))
        path = tmp_path / f"inst{k}.json"
        path.write_text(serialize_instance(inst))
        code, rep = _run(capsys, ["verify", str(path)])
        assert code == 0, rep

        core = canonicalize_minimize(inst)
        inner = preprocess_zero_columns(core).inner
        preserved = check_vertex_preservation(inner)
        lower = check_rhs_lower_bound(inner)
        sol = solve_original(core)
        oracle = brute_force_optimum(inner)
        agree = (
            sol.status == oracle.status == "optimal"
            and sol.objective == oracle.value
        ) or sol.status == oracle.status == "infeasible"
        assert rep["result"]["checks"] == _as_report({
            "rhs_vertex": check_rhs_vertex(inst.b),
            "vertex_preservation": {
                "holds": preserved.holds, "vacuous": preserved.vacuous,
            },
            "rhs_lower_bound": {"holds": lower.holds, "vacuous": lower.vacuous},
            "solver_matches_oracle": {
                "holds": agree,
                "solver_status": sol.status,
                "solver_objective": sol.objective,
                "oracle_status": oracle.status,
                "oracle_objective": oracle.value,
            },
        })
        assert rep["result"]["falsifications"] == []
        feasible += oracle.status == "optimal"
    assert 10 < feasible < 50


def test_python_m_knapagg_cli_runs_main(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "knapagg.cli", "solve", _write(tmp_path, DEMO),
         "--budget-cells", "0"],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout)["status"] == "input_error"


def test_python_m_knapagg_matches_main(tmp_path, capsys):
    path = _write(tmp_path, DEMO)
    proc = subprocess.run(
        [sys.executable, "-m", "knapagg", "solve", path],
        env=_src_env(), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert main(["solve", path]) == 0
    assert proc.stdout == capsys.readouterr().out
