"""The host's momentary speed, from a fixed pure-Python probe.

The reference machine is a virtual machine shared with other tenants, and
its speed drifts: the same code takes 1.0x to 2x its fastest time, in
stretches of seconds to minutes.  A run of the benchmark therefore times
`probe()` around its calls and scales each call's time by
`REFERENCE_S / probe time`, which gives "seconds at the reference machine's
quiet speed".  The probe is a small unbounded-knapsack fill written here,
so it exercises the same interpreter paths as the code under test (list
indexing, int compare and add, Python loops) and never changes with it.
"""

from __future__ import annotations

import time

# The probe's time in a quiet stretch of the reference machine (two-vCPU
# Intel Xeon VM at 2.1 GHz, Python 3.11).  Any constant would do: it only
# sets the scale, and two commits are compared on the same host.
REFERENCE_S = 0.0037
_WEIGHTS = (3, 5, 7, 11, 13, 17)
_COSTS = (9, 14, 20, 31, 35, 46)
_RHS = 6000


def probe() -> float:
    """Seconds one fixed table fill takes now."""
    start = time.perf_counter()
    best: list[int | None] = [None] * (_RHS + 1)
    best[0] = 0
    for v in range(1, _RHS + 1):
        cur = None
        for w, c in zip(_WEIGHTS, _COSTS):
            if w > v:
                continue
            prev = best[v - w]
            if prev is None:
                continue
            cand = prev + c
            if cur is None or cand < cur:
                cur = cand
        best[v] = cur
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into reference seconds."""
    return 2 * REFERENCE_S / (before + after)
