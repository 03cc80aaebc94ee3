"""Spans around the public functions of knapagg, recorded from outside it.

`Tracer.install` replaces every public function of the five modules with a
timing wrapper, in every knapagg module namespace that holds it, so calls
made through any import path are caught: `knapagg.cli.solve_original` as
well as `knapagg.knapsack.solve_original`, and the oracle's own global
lookup of `check_convex_combination` from inside `vertex_set`.  `restore`
puts every original back.  Spans stay in memory until the run ends.

A span is [name, start, end, parent span index, top-level span index,
info]; info holds counts taken from the arguments and the return value.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time

MODULES = ("cli", "instance", "aggregation", "knapsack", "oracle")
NAME, START, END, PARENT, TOP, INFO = range(6)


def _solve_knapsack_info(args, kwargs, result):
    kp = args[0] if args else kwargs["kp"]
    return {"status": result.status, "cells": len(kp.weights) * (kp.rhs + 1)}


def _build_knapsack_info(args, kwargs, result):
    return {"cost_bits": max(result.costs, default=0).bit_length()}


def _enumerate_info(args, kwargs, result):
    return {"points": len(result)}


def _lp_info(args, kwargs, result):
    others = args[1] if len(args) > 1 else kwargs["others"]
    return {"cols": len(others), "vertex": result is None}


# Counts recorded per span, keyed by span name.
PROBES = {
    "knapsack.solve_knapsack": _solve_knapsack_info,
    "aggregation.build_knapsack": _build_knapsack_info,
    "oracle.enumerate_feasible": _enumerate_info,
    "oracle.check_convex_combination": _lp_info,
}


def public_functions(package):
    """(span name, function) for every public function the modules define."""
    found = []
    for short in MODULES:
        module = sys.modules[f"{package.__name__}.{short}"]
        for attr, obj in sorted(vars(module).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                found.append((f"{short}.{attr}", obj))
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, 0.0, 0.0, parent, spans[parent][TOP] if stack else index, None]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if probe is not None:
                span[INFO] = probe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every public function wherever a knapagg module binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in public_functions(package)}
        prefix = package.__name__ + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package.__name__ or modname.startswith(prefix)):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def self_times(spans):
    """Per span: duration minus the time covered by its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - child[k] for k, s in enumerate(spans)]


def layer_metrics(spans, passes, report_bytes, overhead_s, bytes_per_value):
    """Per-layer metrics of one traced run, as {name: (value, unit)}.

    Times and counts are per pass over the workload; ratios are over all
    traced passes.  Self time is used wherever a layer calls another, so
    no second counts the same work twice.
    """
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span, s in zip(spans, selfs):
        name = span[NAME]
        total[name] = total.get(name, 0.0) + span[END] - span[START]
        own[name] = own.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1

    def info(name):
        return [s[INFO] for s in spans if s[NAME] == name and s[INFO] is not None]

    fills, refusals, fill_s, refuse_s = 0, 0, 0.0, 0.0
    for span, s in zip(spans, selfs):
        if span[NAME] != "knapsack.solve_knapsack" or span[INFO] is None:
            continue
        if span[INFO]["status"] == "budget_exceeded":
            refusals += 1
            refuse_s += s
        else:
            fills += span[INFO]["cells"]
            fill_s += s
    lp = info("oracle.check_convex_combination")
    points = sum(i["points"] for i in info("oracle.enumerate_feasible"))
    enumerate_s = total.get("oracle.enumerate_feasible", 0.0)
    bits = [i["cost_bits"] for i in info("aggregation.build_knapsack")]
    reduce_s = sum(
        own.get(f"instance.{f}", 0.0)
        for f in ("canonicalize_minimize", "restrict_zero_rows", "preprocess_zero_columns", "box_bounds")
    )

    def per_pass(x):
        return x / passes

    return {
        "cli.build_parser_s": (per_pass(total.get("cli.build_parser", 0.0)), "s"),
        "cli.main_self_s": (per_pass(own.get("cli.main", 0.0)), "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "instance.parse_s": (per_pass(total.get("instance.parse_instance", 0.0)), "s"),
        "instance.reduce_s": (per_pass(reduce_s), "s"),
        "instance.evaluate_s": (per_pass(total.get("instance.evaluate", 0.0)), "s"),
        "aggregation.build_s": (per_pass(own.get("aggregation.build_knapsack", 0.0)), "s"),
        "aggregation.cost_bits_max": (max(bits, default=0), "count"),
        "knapsack.fill_s": (per_pass(fill_s), "s"),
        "knapsack.cells": (per_pass(fills), "count"),
        "knapsack.fill_ns_per_cell": (fill_s / fills * 1e9 if fills else 0.0, "ns"),
        "knapsack.bytes_per_value": (bytes_per_value, "bytes"),
        "knapsack.refusals": (per_pass(refusals), "count"),
        "knapsack.refuse_s": (per_pass(refuse_s), "s"),
        "knapsack.certify_s": (per_pass(own.get("knapsack.solve_original", 0.0)), "s"),
        "oracle.enumerate_calls": (per_pass(calls.get("oracle.enumerate_feasible", 0)), "count"),
        "oracle.enumerate_s": (per_pass(enumerate_s), "s"),
        "oracle.points": (per_pass(points), "count"),
        "oracle.points_per_s": (points / enumerate_s if enumerate_s else 0.0, "1/s"),
        "oracle.vertex_set_calls": (per_pass(calls.get("oracle.vertex_set", 0)), "count"),
        "oracle.vertex_set_self_s": (per_pass(own.get("oracle.vertex_set", 0.0)), "s"),
        "oracle.lp_calls": (per_pass(len(lp)), "count"),
        "oracle.lp_s": (per_pass(total.get("oracle.check_convex_combination", 0.0)), "s"),
        "oracle.lp_cols_mean": (statistics.fmean(i["cols"] for i in lp) if lp else 0.0, "count"),
        "oracle.lp_vertex_frac": (sum(i["vertex"] for i in lp) / len(lp) if lp else 0.0, "ratio"),
        "oracle.brute_force_s": (per_pass(own.get("oracle.brute_force_optimum", 0.0)), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def self_time_shares(spans, wall):
    """[(span name, self seconds, share of wall)] sorted by self time."""
    own: dict[str, float] = {}
    for span, s in zip(spans, self_times(spans)):
        own[span[NAME]] = own.get(span[NAME], 0.0) + s
    rows = sorted(own.items(), key=lambda kv: -kv[1])
    return [(name, s, s / wall) for name, s in rows]
