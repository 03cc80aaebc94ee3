from __future__ import annotations

import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import knapagg
import knapagg.aggregation
import knapagg.cli
import knapagg.instance
import knapagg.knapsack
import knapagg.oracle
from knapagg import (
    CapExceeded,
    CheckOutcome,
    IPInstance,
    PointSet,
    SolverBudget,
    brute_force_optimum,
    build_knapsack,
    canonicalize_minimize,
    check_rhs_lower_bound,
    check_rhs_vertex,
    check_vertex_preservation,
    enumerate_feasible,
    serialize_instance,
    solve_original,
    vertex_set,
)
from knapagg.cli import _render, main
from knapagg.oracle import DEFAULT_POINT_CAP

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


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no limit on integer string digits",
)
def test_integer_past_the_digit_limit_exits_as_input_error(tmp_path, capsys):
    digits = sys.get_int_max_str_digits() + 1
    doc = {"A": [["1"]], "b": ["1" + "0" * (digits - 1)], "c": ["1"]}
    code, rep = _run(capsys, ["aggregate", _write(tmp_path, doc)])
    assert code == 4
    assert rep["status"] == "input_error"
    assert rep["error"]["type"] == "ParseError"
    assert rep["error"]["message"].startswith(f"b[0]: {digits} digits")


def test_bare_json_integer_past_the_digit_limit_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"A": [[' + "1" * 5000 + ']], "b": ["1"], "c": ["1"]}')
    code, rep = _run(capsys, ["solve", str(path)])
    assert code == 4 and rep["status"] == "input_error"
    assert rep["error"]["type"] == "ParseError"
    assert rep["error"]["message"].startswith("not valid JSON")


def _digit_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this Python sets no limit on decimal integer strings")
    return limit


@pytest.mark.parametrize("cmd", ["aggregate", "solve"])
def test_derived_value_past_the_digit_limit_is_refused(tmp_path, capsys, cmd):
    # each b_i is within the limit; the aggregated rhs (b_1 + 1)(b_2 + 1) - 1
    # has about twice its digits
    limit = _digit_limit()
    big = "1" + "0" * (limit // 2 + 50)
    doc = {"A": [["1", "0"], ["0", "1"]], "b": [big, big], "c": ["1", "1"]}
    assert main([cmd, _write(tmp_path, doc)]) == 3
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert rep["status"] == "cap_exceeded"
    assert "result" not in rep
    assert rep["error"]["type"] == "CapExceeded"
    assert f"{limit}-digit limit" in rep["error"]["message"]
    assert "Traceback" not in err
    assert sys.get_int_max_str_digits() == limit


def test_render_refuses_an_int_past_the_digit_limit():
    limit = _digit_limit()
    with pytest.raises(CapExceeded, match=f"{limit}-digit limit"):
        _render({"x": [10 ** limit]}, "\n")
    assert _render(10 ** (limit - 1), "\n") == '"1' + "0" * (limit - 1) + '"'


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


# the aggregated rhs 10001**2 - 1 is past the default max_rhs of 10**7
BUDGET_REFUSED = {"A": [["1", "0"], ["0", "1"]], "b": ["10000", "10000"], "c": ["1", "1"]}


def _failed_lower_bound(inst, hull):
    return CheckOutcome(False, counterexample={"vertex": (1, 2)})


def test_verify_budget_refusal_is_undecided(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, BUDGET_REFUSED)
    code, rep = _run(capsys, ["verify", path])
    assert code == 3 and rep["status"] == "budget_exceeded"
    checks = rep["result"]["checks"]
    assert checks["solver_matches_oracle"] == {
        "holds": None,
        "solver_status": "budget_exceeded",
        "solver_objective": None,
        "oracle_status": "optimal",
        "oracle_objective": "20000",
    }
    assert checks["rhs_vertex"] is True
    assert checks["vertex_preservation"]["holds"] is True
    assert checks["rhs_lower_bound"]["holds"] is True
    assert rep["result"]["falsifications"] == []
    # a falsified check outranks the undecided solve
    monkeypatch.setattr(knapagg.cli, "check_rhs_lower_bound", _failed_lower_bound)
    code, rep = _run(capsys, ["verify", path])
    assert code == 5 and rep["status"] == "falsified"
    assert rep["result"]["checks"]["solver_matches_oracle"]["holds"] is None
    assert [f["check"] for f in rep["result"]["falsifications"]] == ["rhs_lower_bound"]


def test_verify_lists_falsifications_in_table_order(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, DEMO)
    monkeypatch.setattr(knapagg.cli, "check_rhs_lower_bound", _failed_lower_bound)
    code, rep = _run(capsys, ["verify", path])
    assert code == 5 and rep["status"] == "falsified"
    assert rep["result"]["checks"]["rhs_lower_bound"] == {"holds": False, "vacuous": False}
    assert rep["result"]["falsifications"] == [
        {"check": "rhs_lower_bound", "data": {"vertex": ["1", "2"]}},
    ]
    monkeypatch.setattr(knapagg.cli, "check_rhs_vertex", lambda b, cap: False)
    code, rep = _run(capsys, ["verify", path])
    assert code == 5 and rep["status"] == "falsified"
    assert rep["result"]["falsifications"] == [
        {"check": "rhs_vertex", "rhs": ["1", "1"]},
        {"check": "rhs_lower_bound", "data": {"vertex": ["1", "2"]}},
    ]


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


@pytest.mark.parametrize("vertex", ["+1,0,1", "1_0,0,1", " 1,0,1", "1,,1"])
def test_bound_vertex_entries_follow_the_instance_format(tmp_path, capsys, vertex):
    # int() would read these as (1, 0, 1), (10, 0, 1), (1, 0, 1) and refuse
    # the last; the instance format refuses all four
    code, rep = _run(capsys, ["bound", _write(tmp_path, DEMO), "--vertex", vertex])
    assert code == 4
    assert rep["status"] == "input_error"
    assert rep["error"]["type"] == "ParseError"
    assert rep["error"]["message"].startswith("--vertex[")
    assert "result" not in rep


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


def test_cli_import_is_eager_and_skips_dataclasses_inspect_and_typing():
    # every run of the console script pays for this import before its first
    # row; dataclasses (with inspect) and typing cost about 15 ms of it.
    # site may import typing itself, so only what the import adds counts.
    # bench/spans.py finds each module in sys.modules right after this
    # import, so the package's modules must load with it, not lazily.
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import knapagg.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=_src_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    added = set(json.loads(proc.stdout))
    assert added & {"dataclasses", "inspect", "typing"} == set()
    for name in ("instance", "aggregation", "knapsack", "oracle", "cli"):
        assert f"knapagg.{name}" in added


# sha256 of the stdout of pinned runs, each recorded with an earlier build:
# `oracle` and `verify` when the exact LP still pivoted over Fraction and
# verify enumerated the original set three times, the others when the report
# was still written by json.dumps; reruns of one build cannot show a drift
# between builds, these can
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
    "maximize": dict(DEMO, c=["-1", "-1", "-1"], sense="max"),
    # infeasible: the surrogate's minimizer lifts to a point with a residual
    "residual": {"A": [["1", "0"], ["0", "2"]], "b": ["1", "1"], "c": ["0", "0"]},
    "unbounded": {"A": [["1", "0"]], "b": ["1"], "c": ["0", "-1"]},
    "budget": DEMO,
    "zero-column": {
        "A": [["1", "1", "0", "0"], ["0", "1", "1", "0"]],
        "b": ["1", "1"],
        "c": ["1", "1", "1", "2"],
        "sense": "min",
    },
    # column 1 is free, so a point with x_1 > 0 is the midpoint of x -+ e_1
    "free-column": {"A": [["1", "0"]], "b": ["2"], "c": ["0", "0"]},
    "malformed": "definitely not json",
}
PINNED_SHA256 = {
    ("demo", "oracle"): "12501c81f5d03e9f5d1fd29f32e369a40d67a3704dcfd2d5e83388d66f9780d3",
    ("demo", "verify"): "79e0c6f8751626f9186180b6a94122c1a379e259b203087d4fb4af2ca46542c6",
    ("thirds", "oracle"): "b9252a4ba42f0349db54bd3f26c4d57939fc9e5d08d6eb8e77ed14cf6cc1dfa3",
    ("thirds", "verify"): "121c767ced5222a2ea85e5a5b1a8b3c98104a4fafb84cfdf4fa9d100da3fad65",
    ("infeasible", "oracle"): "58222bd046304cf2ccb5301605f9d349b4f882ddae413fd6fbd240d232d10b86",
    ("infeasible", "verify"): "895be99eaee4641e470bd93f8ebf9c94031c2de308c753666cb185f3b2492013",
    ("demo", "solve"): "6c7e6bd92a1ad4448a9200b68e9dce88a377d896dfe46ccab977a460663af2ca",
    ("maximize", "solve"): "a38979e67cc62637d2311ad00d0f34afff99a251d66cfe223fdb76119a0528be",
    ("residual", "solve"): "2d64988b69aa4d6df4004d334b86770c7ef72c3b575bee98cdb096d5ce7bcc29",
    ("unbounded", "solve"): "c2d053b38386709bfdd7af10c36a7fc83d8e595f92eceec74b53988e8010b5b5",
    ("budget", "solve"): "64fa52bc32f2ea815f270c1bb2922fa6f08aeb2aa8776dff18f0dd1bf3fb1fff",
    ("zero-column", "aggregate"): "079b6c76aed485b4e896575a005607bb10fb5e1a845a25ec70b65c925b52ed53",
    ("demo", "bound"): "948301cc23503666812e4a302bafd8bb5ecb3ac3ae2ac0ed7fd60a8a3fcc8147",
    ("thirds", "bound"): "bc8c10bad89045bb22599d9a201f805e428b91512a63e6eb081c957455c06fa4",
    ("free-column", "bound"): "fe5618ac17df7c41af5d64758e63e747edac250eb70222db7af03334463fb319",
    ("malformed", "solve"): "dce51c43fe2ff256325d772710f056b8259ccd67b62c1bd3fe619495e1b7a4f9",
}
# extra arguments and exit code of the pinned runs that are not a plain
# success
PINNED_CALL = {
    ("residual", "solve"): ([], 1),
    ("unbounded", "solve"): ([], 2),
    ("budget", "solve"): (["--budget-cells", "1"], 3),
    ("demo", "bound"): (["--vertex", "1,0,1"], 0),
    ("thirds", "bound"): (["--vertex", "1,1,2,5"], 4),
    ("free-column", "bound"): (["--vertex", "2,1"], 4),
    ("malformed", "solve"): ([], 4),
}


def _pinned_run(tmp_path, case, cmd):
    doc = PINNED[case]
    if isinstance(doc, str):
        path = tmp_path / "inst.json"
        path.write_text(doc)
        path = str(path)
    else:
        path = _write(tmp_path, doc)
    extra, code = PINNED_CALL.get((case, cmd), ([], 0))
    return [cmd, path, *extra], code


@pytest.mark.parametrize("case,cmd", sorted(PINNED_SHA256))
def test_report_bytes_are_pinned(tmp_path, capsys, case, cmd):
    argv, code = _pinned_run(tmp_path, case, cmd)
    assert main(argv) == code
    out = capsys.readouterr().out
    if case == "thirds" and cmd in ("oracle", "bound"):
        assert '"weight": "1/3"' in out
    if case == "free-column":
        assert '"weight": "1/2"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[case, cmd]


def _count_calls(monkeypatch, fn):
    # every knapagg module that binds fn, so calls through any import count
    calls = []

    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "knapagg" or name.startswith("knapagg."):
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("cmd", ["aggregate", "solve", "verify", "bound", "oracle"])
@pytest.mark.parametrize("case", sorted(set(PINNED) - {"malformed"}))
def test_each_call_runs_the_pipeline_once(tmp_path, capsys, monkeypatch, case, cmd):
    stages = (knapagg.instance.reduce, knapagg.aggregation.aggregate,
              knapagg.aggregation.build_knapsack)
    counts = [_count_calls(monkeypatch, fn) for fn in stages]
    argv, _ = _pinned_run(tmp_path, case, cmd)
    if cmd == "bound" and "--vertex" not in argv:
        argv += ["--vertex", ",".join("0" * len(PINNED[case]["c"]))]
    main(argv)
    assert json.loads(capsys.readouterr().out)["command"] == cmd
    assert [len(calls) for calls in counts] == [1, 1, 1]


def test_cli_imports_no_private_name():
    tree = ast.parse(Path(knapagg.cli.__file__).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.partition(".")[0] == "knapagg")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


# b = (2, 0, 3): the zero row pins columns 1 and 2, leaving 4 x0 = 11
ZERO_ROW = {
    "A": [["1", "1", "0"], ["0", "1", "1"], ["1", "0", "1"]],
    "b": ["2", "0", "3"],
    "c": ["1", "1", "1"],
}
# every column pinned: nothing reaches the surrogate
ALL_PINNED = {"A": [["1"], ["1"]], "b": ["2", "0"], "c": ["1"]}


def _surrogates(capsys, path):
    """The surrogate as aggregate, solve and oracle report it, side by side."""
    _, agg = _run(capsys, ["aggregate", path])
    _, sol = _run(capsys, ["solve", path])
    _, orc = _run(capsys, ["oracle", path])
    agg, sur, orc = agg["result"], sol["result"]["surrogate"], orc["result"]
    return (
        (agg["aggregated_row"], agg["aggregated_rhs"], agg["columns_kept"]),
        (sur["weights"], sur["rhs"], sur["columns_kept"]),
        (orc["aggregated"]["row"], orc["aggregated"]["rhs"], orc["columns_kept"]),
        orc,
    )


def test_every_subcommand_describes_the_surrogate_solve_solves(tmp_path, capsys):
    paths = [
        (_write(tmp_path, ZERO_ROW, "zero-row.json"), [2, 0, 3], 3),
        (_write(tmp_path, ALL_PINNED, "all-pinned.json"), [2, 0], 1),
    ]
    for inst, path in _two_row_instances(tmp_path):
        if list(inst.b).count(0) == 1:
            paths.append((str(path), list(inst.b), inst.n))
    assert len(paths) > 10
    bounded = 0
    for path, b, n in paths:
        agg, sur, orc, oracle = _surrogates(capsys, path)
        assert agg == sur == orc, path
        rhs = 1
        for bi in b:
            rhs *= bi + 1
        assert agg[1] == str(rhs - 1)
        kept = [int(j) for j in agg[2]]
        for sub in oracle["original"]["points"][:1]:
            point = ["0"] * n
            for j, v in zip(kept, sub):
                point[j] = v
            _, rep = _run(capsys, ["bound", path, "--vertex", ",".join(point)])
            assert rep["result"]["aggregated_rhs"] == str(rhs - 1)
            bounded += 1
    assert bounded > 5
    agg, _, _, _ = _surrogates(capsys, paths[0][0])
    assert agg == (["4"], "11", ["0"])
    agg, _, _, _ = _surrogates(capsys, paths[1][0])
    assert agg == ([], "2", [])


def test_unbounded_column_is_named_in_original_coordinates(tmp_path, capsys):
    # the zero row pins column 1; column 2 is zero everywhere with cost -1
    doc = {"A": [["1", "0", "0"], ["0", "1", "0"]], "b": ["1", "0"], "c": ["0", "0", "-1"]}
    path = _write(tmp_path, doc)
    for cmd in ("solve", "verify"):
        code, rep = _run(capsys, [cmd, path])
        assert code == 2 and rep["status"] == "unbounded", cmd
        assert rep["error"] == {
            "type": "UnboundedProblem",
            "message": "column 2 is identically zero with negative cost -1",
        }
    # aggregate solves nothing: it shows the surrogate and names the cost
    code, rep = _run(capsys, ["aggregate", path])
    assert code == 0
    assert rep["result"]["columns_dropped"][1] == {
        "index": "2",
        "reason": "zero column, negative cost -1: unbounded if the kept rows are feasible",
    }


def test_infeasible_beats_unbounded(tmp_path, capsys):
    # 2 x0 = 1 has no solution, so the negative-cost column 1 is moot
    path = _write(tmp_path, {"A": [["2", "0"]], "b": ["1"], "c": ["0", "-1"]})
    code, rep = _run(capsys, ["solve", path])
    assert code == 1 and rep["result"]["status"] == "infeasible"
    code, rep = _run(capsys, ["verify", path])
    assert code == 0
    assert rep["result"]["checks"]["solver_matches_oracle"]["solver_status"] == "infeasible"
    code, rep = _run(capsys, ["aggregate", path])
    assert code == 0 and rep["result"]["aggregated_row"] == ["2"]
    # a feasible one is unbounded, but only once its table is filled and
    # its points enumerated, so a budget or a cap stops it first
    path = _write(tmp_path, {"A": [["1", "1", "0"]], "b": ["60"], "c": ["0", "0", "-1"]})
    assert _run(capsys, ["solve", path])[0] == 2
    assert _run(capsys, ["solve", path, "--budget-rhs", "10"])[0] == 3
    assert _run(capsys, ["verify", path])[0] == 2
    assert _run(capsys, ["verify", path, "--cap", "10"])[0] == 3


def test_aggregate_lists_pinned_and_zero_columns(tmp_path, capsys):
    doc = {"A": [["1", "0", "0", "1"], ["0", "1", "0", "0"]], "b": ["1", "0"],
           "c": ["0", "0", "0", "1"]}
    path = _write(tmp_path, doc)
    code, rep = _run(capsys, ["aggregate", path])
    assert code == 0
    r = rep["result"]
    assert r["aggregating_vector"] == ["1"]
    assert r["columns_kept"] == ["0", "3"]
    assert [d["index"] for d in r["columns_dropped"]] == ["1", "2"]
    assert r["rhs_plus_one_product"] == "2"
    code, rep = _run(capsys, ["solve", path])
    assert rep["result"]["x"] == ["1", "0", "0", "0"]
    assert rep["result"]["surrogate"]["columns_kept"] == ["0", "3"]


def test_aggregate_words_each_dropped_column(tmp_path, capsys):
    # column 1 is pinned by the zero row; columns 2 and 3 are zero in every
    # row, one with a nonnegative cost and one with a negative cost
    doc = {"A": [["1", "0", "0", "0"], ["0", "1", "0", "0"]], "b": ["1", "0"],
           "c": ["0", "0", "3", "-2"]}
    code, rep = _run(capsys, ["aggregate", _write(tmp_path, doc)])
    assert code == 0
    assert rep["result"]["columns_dropped"] == [
        {"index": "1", "reason": "pinned to zero by a zero right-hand-side row"},
        {"index": "2", "reason": "zero column, cost >= 0, variable fixed to 0"},
        {
            "index": "3",
            "reason": "zero column, negative cost -2: unbounded if the kept rows are feasible",
        },
    ]


def test_verify_checks_the_restricted_rows_and_rhs_vertex_the_given_b(
    tmp_path, capsys, monkeypatch
):
    seen = []
    real = knapagg.oracle.enumerate_feasible

    def recorded(A, b, *args, **kwargs):
        seen.append((tuple(map(tuple, A)), tuple(b)))
        return real(A, b, *args, **kwargs)

    for module in (knapagg.oracle, knapagg.cli):
        monkeypatch.setattr(module, "enumerate_feasible", recorded)
    code, rep = _run(capsys, ["verify", _write(tmp_path, ZERO_ROW)])
    assert code == 0 and rep["result"]["falsifications"] == []
    # rhs_vertex aggregates b = (2, 0, 3) as given, weights (1, 3, 3);
    # the original set is that of the restricted rows, b = (2, 3)
    assert seen == [(((1, 3, 3),), (11,)), (((1,), (1,)), (2, 3))]
    assert rep["result"]["checks"]["solver_matches_oracle"]["oracle_status"] == "infeasible"


@pytest.mark.parametrize("case,hulls,enumerations", [
    ("demo", 1, 3),
    # the empty original set is hulled too, which does no work
    ("infeasible", 1, 2),
])
def test_verify_enumerates_and_hulls_the_original_set_once(
    tmp_path, capsys, monkeypatch, case, hulls, enumerations
):
    hulled = _count_calls(monkeypatch, knapagg.oracle.vertex_set)
    enumerated = _count_calls(monkeypatch, knapagg.oracle.enumerate_feasible)
    built = _count_calls(monkeypatch, knapagg.aggregation.build_knapsack)
    code, rep = _run(capsys, ["verify", _write(tmp_path, PINNED[case])])
    assert code == 0 and rep["status"] == "ok"
    assert len(hulled) == hulls
    assert len(enumerated) == enumerations
    assert len(built) == 1  # the surrogate is built once, by main


def _as_report(value):
    if isinstance(value, (bool, str)) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    return {k: _as_report(v) for k, v in value.items()}


def _two_row_instances(tmp_path):
    # 50 seeded 2-row instances: min and max, zero-rhs rows, free columns
    rng = random.Random(4242)
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
        yield inst, path


def test_verify_checks_equal_the_public_checks(tmp_path, capsys):
    feasible = 0
    for inst, path in _two_row_instances(tmp_path):
        code, rep = _run(capsys, ["verify", str(path)])
        assert code == 0, rep

        core = canonicalize_minimize(inst)
        kp = build_knapsack(core)
        inner = kp.reduced.inner
        hull = vertex_set(enumerate_feasible(inner.A, inner.b))
        preserved = check_vertex_preservation(kp.weights, kp.rhs, hull)
        lower = check_rhs_lower_bound(kp.rhs, hull)
        sol = solve_original(core)
        oracle = brute_force_optimum(inner, hull.points)
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


def _never_lex_extreme(p, others):
    return None


def test_lex_certificate_leaves_vertex_reports_unchanged(monkeypatch):
    rng = random.Random(7311)
    sets = []
    for _ in range(200):
        d = rng.randint(1, 4)
        hi = rng.choice((2, 4, 8))
        pts = {tuple(rng.randint(0, hi) for _ in range(d)) for _ in range(rng.randint(1, 14))}
        sets.append(PointSet(d, tuple(sorted(pts))))
    fast = [knapagg.oracle.vertex_set(pts) for pts in sets]
    monkeypatch.setattr(knapagg.oracle, "_lex_extreme", _never_lex_extreme)
    slow = [knapagg.oracle.vertex_set(pts) for pts in sets]
    assert fast == slow
    assert sum(len(r.witnesses) for r in fast) > 100


def test_lex_certificate_leaves_reports_unchanged(tmp_path, capsys, monkeypatch):
    lp_calls = _count_calls(monkeypatch, knapagg.oracle.check_convex_combination)

    def reports():
        out = []
        for _, path in _two_row_instances(tmp_path):
            for argv in (["verify", str(path)], ["oracle", str(path)]):
                out.append((main(argv), capsys.readouterr().out))
            code, text = out[-1]
            if code != 0:
                continue
            rep = json.loads(text)
            kept = [int(j) for j in rep["result"]["columns_kept"]]
            n = len(json.loads(path.read_text())["c"])
            for sub in rep["result"]["original"]["points"]:
                point = ["0"] * n
                for j, v in zip(kept, sub):
                    point[j] = v
                argv = ["bound", str(path), "--vertex", ",".join(point)]
                out.append((main(argv), capsys.readouterr().out))
        return out

    fast = reports()
    fast_calls = len(lp_calls)
    monkeypatch.setattr(knapagg.oracle, "_lex_extreme", _never_lex_extreme)
    slow = reports()
    slow_calls = len(lp_calls) - fast_calls
    assert fast == slow
    assert sum(text.count('"is_vertex": false') for _, text in fast) > 0
    assert fast_calls * 10 < slow_calls


def test_oracle_pivot_cap_one_passes_when_every_vertex_is_lex_extreme(
    tmp_path, capsys, monkeypatch
):
    # every vertex of the demo, original and aggregated, comes first under
    # a signed order, so no LP runs and a cap of one pivot is never reached
    path = _write(tmp_path, DEMO)
    code, rep = _run(capsys, ["oracle", path, "--pivot-cap", "1"])
    assert code == 0 and rep["settings"]["pivot_cap"] == "1"
    assert rep["result"] == _run(capsys, ["oracle", path])[1]["result"]
    monkeypatch.setattr(knapagg.oracle, "_lex_extreme", _never_lex_extreme)
    code, rep = _run(capsys, ["oracle", path, "--pivot-cap", "1"])
    assert code == 3 and rep["status"] == "cap_exceeded"


def test_oracle_negative_pivot_cap_is_input_error(tmp_path, capsys):
    # no LP runs on the demo, so the cap must be checked before any work
    code, rep = _run(capsys, ["oracle", _write(tmp_path, DEMO), "--pivot-cap", "-1"])
    assert code == 4 and rep["status"] == "input_error"
    assert rep["error"]["type"] == "ValidationError"
    assert "result" not in rep


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


def test_main_reuses_one_parser_and_leaks_no_state(tmp_path, capsys, monkeypatch):
    built = []
    real = knapagg.cli.build_parser

    def counted():
        built.append(1)
        return real()

    monkeypatch.setattr(knapagg.cli, "build_parser", counted)
    knapagg.cli._parser.cache_clear()
    path = _write(tmp_path, DEMO)
    default = SolverBudget()
    # each call follows one that set other options, or failed to parse
    calls = [
        (["bound", path], None),
        (["oracle", path, "--cap", "7"], {"cap": "7", "pivot_cap": "100000"}),
        (["verify", path], {"cap": str(DEFAULT_POINT_CAP)}),
        (["solve", path, "--budget-cells", "1"],
         {"budget_cells": "1", "budget_rhs": str(default.max_rhs)}),
        (["solve", path],
         {"budget_cells": str(default.max_cells), "budget_rhs": str(default.max_rhs)}),
    ]
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "knapagg", *argv],
            env=_src_env(), capture_output=True, text=True, timeout=60,
        )
        for argv, _ in calls
    ]
    for _ in range(4):
        for (argv, settings), proc in zip(calls, fresh):
            code = main(argv)
            out = capsys.readouterr().out
            assert (code, out) == (proc.returncode, proc.stdout), argv
            if settings is None:
                assert code == 4 and out == ""
            else:
                assert json.loads(out)["settings"] == settings
    assert len(built) == 1


def _reference_jsonable(value):
    # the report writer before _render, kept as the reference it must match
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_reference_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _reference_jsonable(v) for k, v in value.items()}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _reference_render(value):
    return json.dumps(_reference_jsonable(value), indent=2, sort_keys=True)


_TEXT = (
    "", "x", "key", "é", "漢字", "😀", "\x00", "\x1f", "\x7f", "\t\n\r", '"', "\\",
    "\u2028", "\ud800", "\udfff", "1", "-2",
)


def _random_value(rng, depth):
    kind = rng.randrange(10 if depth < 4 else 6)
    if kind == 0:
        return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(4)))
    if kind == 1:
        return rng.choice((None, True, False, 0, 1, -1))
    if kind == 2:
        return rng.randint(-10**9, 10**9)
    if kind == 3:
        return rng.choice((-1, 1)) * rng.randrange(10**999, 10**1000)
    if kind == 4:
        return Fraction(rng.randint(-60, 60), rng.randint(1, 12))
    if kind == 5:
        return rng.choice(_TEXT)
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    keys = [
        rng.choice(_TEXT) if rng.random() < 0.5 else rng.randint(-3, 12)
        for _ in items
    ]
    return dict(zip(keys, items))


def test_render_matches_the_json_dumps_writer():
    rng = random.Random(20261018)
    for _ in range(2500):
        value = _random_value(rng, 0)
        assert _render(value, "\n") == _reference_render(value)
    report = {"a": [1, {"b": ()}], 2: Fraction(-1, 3), "c": {}, "d": [True, 1]}
    assert _render(report, "\n") == _reference_render(report)


def test_render_refuses_records():
    # a record is a named tuple, so a tuple by isinstance; it must not print
    # as a bare list of its fields
    for record in (CheckOutcome(True), SolverBudget(), PointSet(1, ((0,),))):
        with pytest.raises(TypeError):
            _render(record, "\n")
        with pytest.raises(TypeError):
            _render({"k": [1, record]}, "\n")


def test_render_refuses_a_float_anywhere():
    rng = random.Random(7)
    for _ in range(200):
        value = 0.5
        for _ in range(rng.randrange(4)):
            sibling = _random_value(rng, 2)
            value = rng.choice((
                [sibling, value], (value, sibling), {"k": value, "s": sibling},
            ))
        with pytest.raises(TypeError):
            _reference_render(value)
        with pytest.raises(TypeError):
            _render(value, "\n")
