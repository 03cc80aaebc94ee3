"""Benchmark of the knapagg CLI, run from a source checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

One process per workload.  It generates the workload's instances from the
seed, writes them as JSON files under .bench_out/, computes every expected
outcome, and then:

* --trace 0: runs the calls through knapagg.cli.main in this process as a
  closed loop with one client, pass after pass, for about S seconds, with
  fresh-process CLI runs (cli_cold_s, setup_s) between the passes, and
  reports the end-to-end metrics.  Every time is scaled to the reference
  machine's quiet speed by the host-speed probe timed around it
  (hostspeed.py);
* --trace 1: alternates untimed and traced passes (spans around every
  public function of knapagg), runs a separate tracemalloc pass, and
  reports the per-layer metrics.

Every call's exit code and report are checked; a wrong one counts as
failed.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  `--workload all` runs each workload in its
own process and prints a table of all metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import checks
import hostspeed
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("calls_per_s", "1/s"),
    ("call_p50_s", "s"),
    ("call_tail_s", "s"),
    ("cells_per_s", "1/s"),
    ("cli_cold_s", "s"),
    ("peak_rss_mb", "MB"),
)
COLD_RUNS = 20
COLD_PER_PASS = 3
# A pass probes the host's speed again once its calls have run this long.
PROBE_EVERY_S = 0.02
# Percentiles in tenths; call_tail_s uses the highest with ten calls beyond it.
TAIL_PERCENTILES = (500, 750, 900, 950, 990, 999)
# The tracemalloc pass solves only tables up to this rhs, to bound its time.
MEMORY_MAX_RHS = 100_000
# Points counted for the manifest only up to this aggregated rhs.
MANIFEST_MAX_RHS = 10_000


def load_program():
    """Import knapagg from this checkout's src/, or exit without a result."""
    if not (SRC / "knapagg" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'knapagg'} not found; run from a knapagg checkout")
    sys.path.insert(0, str(SRC))
    import knapagg.cli

    return knapagg


class Runner:
    """Calls knapagg.cli.main in this process and checks every report.

    main is looked up on the module at every call, so a traced pass runs
    the wrapper that replaced it.
    """

    def __init__(self, cli, cases, paths):
        self.cli = cli
        self.cases = cases
        self.argvs = [case.argv(str(p)) for case, p in zip(cases, paths)]
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self._checked: dict[int, tuple[object, str, str | None]] = {}

    def record(self, i, code, stdout):
        """Count one call of case i; a report seen before keeps its verdict."""
        self.attempted += 1
        seen = self._checked.get(i)
        if seen is not None and seen[:2] == (code, stdout):
            reason = seen[2]
        elif isinstance(code, BaseException):
            reason = f"raised {type(code).__name__}: {code}"
        else:
            reason = checks.check_report(self.cases[i], code, stdout)
            self._checked[i] = (code, stdout, reason)
        if reason is not None:
            self.failures.append((self.cases[i].name, reason))

    def call(self, i):
        out, sink = io.StringIO(), io.StringIO()
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, sink
        start = time.perf_counter()
        try:
            code = self.cli.main(self.argvs[i])
        except Exception as exc:  # a crash is a failed call, not a dead run
            code = exc
        finally:
            elapsed = time.perf_counter() - start
            sys.stdout, sys.stderr = saved
        return code, out.getvalue(), elapsed

    def run_pass(self):
        """One pass over every call, with the host's speed probed around them.

        A probe runs before the first call, after the last, and between
        calls once PROBE_EVERY_S seconds of calls have run since the last
        one; each call's time is scaled by the probes on either side of it.
        Returns (seconds of the calls as measured, per-call reference seconds).
        """
        results, measured, group = [], [], []
        probes = [hostspeed.probe()]
        since = 0.0
        for i in range(len(self.cases)):
            code, stdout, elapsed = self.call(i)
            results.append((code, stdout))
            measured.append(elapsed)
            group.append(len(probes) - 1)
            since += elapsed
            if since >= PROBE_EVERY_S or i == len(self.cases) - 1:
                probes.append(hostspeed.probe())
                since = 0.0
        scales = [hostspeed.scale(a, b) for a, b in zip(probes, probes[1:])]
        for i, (code, stdout) in enumerate(results):
            self.record(i, code, stdout)
        return sum(measured), [t * scales[g] for t, g in zip(measured, group)]

    def paired_pass(self, tracer, package, traced_first):
        """Each call untraced and traced, back to back.

        Both runs of a call see the same host state, and the order flips
        from pass to pass because the second run of a large table finds
        its memory already mapped.  Returns (untraced seconds, traced
        seconds, mean report bytes).
        """
        times = {False: 0.0, True: 0.0}
        results = []
        for i in range(len(self.cases)):
            for traced in (traced_first, not traced_first):
                if traced:
                    tracer.install(package)
                try:
                    code, stdout, elapsed = self.call(i)
                finally:
                    tracer.restore()
                results.append((i, code, stdout))
                times[traced] += elapsed
        for i, code, stdout in results:
            self.record(i, code, stdout)
        size = statistics.fmean(len(stdout.encode()) for _, _, stdout in results)
        return times[False], times[True], size


def cold_runs(runner, count, warm_up):
    """Fresh-process runs of the first case: ([wall], [setup]) per run.

    Both times are scaled to reference seconds by probes of the host's
    speed just before and after the process.  With warm_up, one untimed
    run first fills the bytecode and file caches, as any repeated use of
    the CLI would.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(BENCH / "cold.py"), *runner.argvs[0]]
    walls, setups = [], []
    for k in range(count + warm_up):
        before = hostspeed.probe()
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT, timeout=150)
        wall = time.perf_counter() - start
        factor = hostspeed.scale(before, hostspeed.probe())
        runner.record(0, proc.returncode, proc.stdout)
        last = proc.stderr.rstrip().rsplit("\n", 1)[-1]
        if k >= warm_up and last.startswith("setup_s="):
            walls.append(wall * factor)
            setups.append(float(last.split("=", 1)[1]) * factor)
    return walls, setups


def timed_passes(step, seconds, min_passes, after=None):
    """Run step() until one more would overrun `seconds` (at least min_passes).

    after(), if given, runs between passes, outside their timing.
    """
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(step())
        if after is not None:
            after()
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + elapsed / len(passes) > seconds:
            return passes


def tail_percentile(samples):
    """Highest percentile (in tenths) with at least ten samples beyond it, or
    1000 (the largest sample) when there are too few samples for any."""
    fit = [p for p in TAIL_PERCENTILES if (1000 - p) * samples >= 10_000]
    return max(fit, default=1000)


def nearest_rank(sorted_values, tenths):
    return sorted_values[max(math.ceil(tenths * len(sorted_values) / 1000) - 1, 0)]


def end_to_end(runner, passes, cold):
    """The end-to-end metrics of one run, in reference seconds.

    Each call's time is the median of its scaled times over the passes,
    and wall_s is the sum of those medians: the time of a typical pass.
    call_tail_s ranks those per-call times, so the calls beyond its
    percentile are distinct calls, not repeats of one slow call; with
    fewer than 20 calls it is the slowest call.  setup_s and cli_cold_s
    are medians over the fresh-process runs.
    """
    cases = runner.cases
    per_call = [statistics.median(p[1][i] for p in passes) for i in range(len(cases))]
    ranked = sorted(per_call)
    tenths = tail_percentile(len(ranked))
    cells = sum(case.cells for case in cases)
    cell_time = sum(t for case, t in zip(cases, per_call) if case.cells)
    wall = sum(per_call)
    cold_walls, setups = cold
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "calls_per_s": len(cases) / wall,
        "call_p50_s": statistics.median(per_call),
        "call_tail_s": nearest_rank(ranked, tenths),
        "cells_per_s": cells / cell_time,
        "cli_cold_s": statistics.median(cold_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    measured = [p[0] for p in passes]
    print(
        f"passes {len(passes)}, {len(cases)} calls each; calls per pass as measured "
        f"min/median/max {min(measured):.4f}/{statistics.median(measured):.4f}/"
        f"{max(measured):.4f} s, host at {statistics.median(measured) / wall:.2f}x the "
        f"reference time; call_tail_s is p{tenths / 10:g} of {len(ranked)} per-call times; "
        f"fresh-process runs {len(setups)}"
    )
    return {key: (values[key], unit) for key, unit in END_TO_END}


def memory_pass(knapagg, runner, paths):
    """Bytes per table value from tracemalloc, in a pass of its own.

    Runs `solve` on every instance whose table has rhs <= MEMORY_MAX_RHS
    and takes the traced peak inside knapsack.solve_knapsack, over all
    filled tables, divided by their total rhs + 1.  tracemalloc slows every
    allocation, so no timed pass runs while it is on.
    """
    module = knapagg.knapsack
    fill = module.solve_knapsack
    peak, values = 0, 0

    def measured(kp, *args, **kwargs):
        nonlocal peak, values
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sol = fill(kp, *args, **kwargs)
        if sol.status != "budget_exceeded":
            peak += tracemalloc.get_traced_memory()[1] - base
            values += kp.rhs + 1
        return sol

    todo = [
        str(path)
        for case, path in zip(runner.cases, paths)
        if case.cells and checks.surrogate_shape(case.A, case.b)[1] <= MEMORY_MAX_RHS
    ]
    module.solve_knapsack = measured
    tracemalloc.start()
    saved = sys.stdout, sys.stderr
    try:
        for path in todo:
            sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
            runner.cli.main(["solve", path])
    finally:
        sys.stdout, sys.stderr = saved
        tracemalloc.stop()
        module.solve_knapsack = fill
    return peak / values if values else 0.0


def traced_run(knapagg, name, seed, runner, paths, seconds):
    tracer = spans.Tracer()
    flips = itertools.count()
    passes = timed_passes(
        lambda: runner.paired_pass(tracer, knapagg, traced_first=next(flips) % 2 == 1),
        seconds,
        2,
    )
    bytes_per_value = memory_pass(knapagg, runner, paths)
    plain = statistics.fmean(p[0] for p in passes)
    traced = statistics.fmean(p[1] for p in passes)
    metrics = spans.layer_metrics(
        tracer.spans,
        passes=len(passes),
        report_bytes=statistics.fmean(p[2] for p in passes),
        overhead_s=traced - plain,
        bytes_per_value=bytes_per_value,
    )
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{name}-seed{seed}.json"
    fields = ["name", "start", "end", "parent", "top", "info"]
    dump.write_text(json.dumps({"fields": fields, "spans": tracer.spans}))
    print(
        f"paired passes {len(passes)}: {traced:.4f} s traced, {plain:.4f} s untraced "
        f"per pass; spans in {dump.relative_to(ROOT)}"
    )
    print("self time by span, share of traced time:")
    total = sum(p[1] for p in passes)
    for span_name, self_s, share in spans.self_time_shares(tracer.spans, total):
        if share >= 0.001:
            print(f"  {span_name:40s} {self_s / len(passes):10.4f} s/pass {100 * share:6.2f}%")
    return metrics


def print_manifest(name, seed, cases):
    """Per-instance properties, their shares, and one digest over all inputs."""
    print(f"workload {name} seed {seed}: {len(cases)} calls")
    print("case cmd m n rhs cells cost_bits points_orig points_agg expect digest")
    props = []
    for case in cases:
        rhs = checks.surrogate_shape(case.A, case.b)[1]
        cols = checks.nonzero_columns(case.A)
        small = checks.rhs_plus_one(case.b) - 1 <= MANIFEST_MAX_RHS
        orig = checks.count_points(case.A, case.b, cols) if small else None
        agg = checks.count_aggregated_points(case.A, case.b, cols) if small else None
        bits = checks.penalized_cost_bits(case.A, case.b, case.c, case.sense)
        props.append((rhs, bits))
        print(
            f"{case.name} {case.cmd} {len(case.b)} {len(case.c)} {rhs} {case.cells} "
            f"{bits} {orig} {agg} {case.expect['status']} {case.digest()[:16]}"
        )
    count = len(cases)
    shares = {
        "cmd": Counter(case.cmd for case in cases),
        "expect": Counter(case.expect["status"] for case in cases),
        "m": Counter(len(case.b) for case in cases),
        "cost_bits>64": Counter(bits is not None and bits > 64 for _, bits in props),
        "rhs_decade": Counter(f"1e{len(str(rhs)) - 1}" for rhs, _ in props),
        "zero_rhs_row": Counter(0 in case.b for case in cases),
        "zero_column": Counter(len(checks.nonzero_columns(case.A)) < len(case.c) for case in cases),
    }
    for key, counter in shares.items():
        parts = ", ".join(f"{k}: {v}/{count} ({100 * v / count:.1f}%)" for k, v in sorted(counter.items(), key=str))
        print(f"share {key}: {parts}")
    digest = hashlib.sha256("".join(case.digest() for case in cases).encode()).hexdigest()
    print(f"inputs digest {digest}")


def run_workload(args):
    knapagg = load_program()
    cases = workloads.WORKLOADS[args.workload](args.seed)
    print_manifest(args.workload, args.seed, cases)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        paths = []
        for k, case in enumerate(cases):
            path = work / f"{k:04d}.json"
            path.write_bytes(case.document())
            paths.append(path)
        runner = Runner(knapagg.cli, cases, paths)
        if args.trace:
            runner.record(0, *runner.call(0)[:2])  # warm-up call
            metrics = traced_run(knapagg, args.workload, args.seed, runner, paths, args.seconds)
        else:
            # Fresh-process runs go between the passes, a few at a time, so
            # they sample the host's speed at many moments of the run.
            walls, setups = cold_runs(runner, 1, warm_up=True)

            def more_cold_runs(count=COLD_PER_PASS):
                count = min(count, COLD_RUNS - len(walls))
                more = cold_runs(runner, count, warm_up=False)
                walls.extend(more[0])
                setups.extend(more[1])

            runner.record(0, *runner.call(0)[:2])  # warm-up call
            passes = timed_passes(
                runner.run_pass, args.seconds, workloads.MIN_PASSES[args.workload], more_cold_runs
            )
            more_cold_runs(COLD_RUNS)
            metrics = end_to_end(runner, passes, (walls, setups))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for case_name, reason in runner.failures[:20]:
        print(f"FAILED {case_name}: {reason}")
    failed = len(runner.failures)
    print(f"fail_frac {failed / runner.attempted:.6f} ({failed} of {runner.attempted} calls)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:28s} {value:16.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


def run_all(args):
    """Each workload in its own process; then one table of every metric."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.rstrip().rsplit("\n", 1)[-1])
    names = list(results)
    print(f"{'metric':28s} {'unit':6s} " + " ".join(f"{n:>14s}" for n in names))
    for key, first in results[names[0]]["metrics"].items():
        row = " ".join(f"{results[n]['metrics'][key]['value']:14.6g}" for n in names)
        print(f"{key:28s} {first['unit']:6s} {row}")
    fails = " ".join(f"{results[n]['failed'] / results[n]['attempted']:14.6f}" for n in names)
    print(f"{'fail_frac':28s} {'ratio':6s} {fails}")
    print(json.dumps(results))


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
