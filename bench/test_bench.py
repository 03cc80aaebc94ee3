"""Tests of the benchmark itself: PYTHONPATH=src python -m pytest bench -q"""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import hostspeed
import run
import spans
import workloads

knapagg = run.load_program()


def _report(case, tmp_path):
    path = tmp_path / f"{case.name}.json"
    path.write_bytes(case.document())
    out, saved = io.StringIO(), sys.stdout
    sys.stdout = out
    try:
        code = knapagg.cli.main(case.argv(str(path)))
    finally:
        sys.stdout = saved
    return code, out.getvalue()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_same_instances(name):
    generate = workloads.WORKLOADS[name]
    first = [case.digest() for case in generate(7)]
    assert first == [case.digest() for case in generate(7)]
    assert first != [case.digest() for case in generate(8)]


def test_reports_of_every_workload_pass_their_checks(tmp_path):
    for name, generate in workloads.WORKLOADS.items():
        cases = generate(1)
        sample = [case for case in cases if case.cells <= 100_000][:25]
        for case in sample:
            assert checks.check_report(case, *_report(case, tmp_path)) is None, (name, case.name)


def test_corrupted_reports_are_counted_as_failed(tmp_path):
    case = workloads.solve_ladder(1)[0]
    code, stdout = _report(case, tmp_path)
    assert code == 0 and checks.check_report(case, code, stdout) is None

    report = json.loads(stdout)
    report["result"]["objective"] = str(int(report["result"]["objective"]) + 1)
    wrong_objective = json.dumps(report)

    class Corrupting:
        """Stands in for knapagg.cli: returns each corruption once, then the truth."""

        answers = [(code, wrong_objective), (3, stdout), (code, stdout)]

        @classmethod
        def main(cls, argv):
            answer, text = cls.answers.pop(0)
            sys.stdout.write(text)
            return answer

    runner = run.Runner(Corrupting, [case], [tmp_path / "unused.json"])
    for _ in range(3):
        runner.run_pass()
    assert runner.attempted == 3
    reasons = [reason for _, reason in runner.failures]
    assert len(reasons) == 2
    assert "objective is not c.x" in reasons[0]
    assert "exit code 3" in reasons[1]


def test_oracle_check_rejects_a_bad_witness(tmp_path):
    for case in workloads.cli_mixed(2):
        if case.cmd != "oracle":
            continue
        code, stdout = _report(case, tmp_path)
        report = json.loads(stdout)
        witnesses = report["result"]["aggregated"]["witnesses"]
        if witnesses:
            break
    first = next(iter(witnesses.values()))
    first[0]["weight"] = "-1/2"
    reason = checks.check_report(case, code, json.dumps(report))
    assert reason is not None and "witness" in reason


def test_tail_percentile_leaves_ten_calls_beyond():
    assert run.tail_percentile(14) == 1000  # too few calls: the slowest one
    assert run.tail_percentile(184) == 900
    assert run.tail_percentile(640) == 950
    for count in (20, 184, 640, 10_000):
        ranked = list(range(count))
        rank = run.nearest_rank(ranked, run.tail_percentile(count))
        assert count - 1 - rank >= 10


def test_host_speed_scale_is_reference_over_probe():
    assert hostspeed.probe() > 0
    assert hostspeed.scale(hostspeed.REFERENCE_S, hostspeed.REFERENCE_S) == 1
    assert hostspeed.scale(1.5 * hostspeed.REFERENCE_S, 2.5 * hostspeed.REFERENCE_S) == 0.5


def _bindings():
    return {
        (name, attr): obj
        for name, module in sys.modules.items()
        if name == "knapagg" or name.startswith("knapagg.")
        for attr, obj in vars(module).items()
    }


def test_tracer_restores_every_original(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install(knapagg)
    try:
        wrapped = {key for key, obj in _bindings().items() if obj is not before[key]}
        assert ("knapagg.cli", "solve_original") in wrapped
        assert ("knapagg.knapsack", "solve_original") in wrapped
        assert ("knapagg.oracle", "check_convex_combination") in wrapped
        assert {key[0] for key in wrapped} >= {f"knapagg.{m}" for m in spans.MODULES}
        case = workloads.verify_oracle(1)[-1]
        assert checks.check_report(case, *_report(case, tmp_path)) is None
    finally:
        tracer.restore()
    assert _bindings() == before
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"cli.main", "knapsack.solve_knapsack", "oracle.check_convex_combination"} <= names
    tops = {span[spans.TOP] for span in tracer.spans}
    assert tops == {0}  # one CLI call, one top-level span


def _metrics(trace):
    cmd = [sys.executable, str(run.BENCH / "run.py"), "--workload", "cli-mixed",
           "--seed", "1", "--seconds", "0.1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=170, check=True)
    result = json.loads(proc.stdout.rstrip().rsplit("\n", 1)[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        assert _metrics(trace) == want


def test_run_without_the_program_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "bench").mkdir(parents=True)
    for path in run.BENCH.glob("*.py"):
        (bare / "bench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mixed", "--seed", "1", "--seconds", "1"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
    assert Path(bare / ".bench_out").exists() is False
