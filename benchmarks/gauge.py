"""A fixed pure-Python loop that gauges the machine's speed.

Other tenants of a shared machine slow it down in bursts and in phases
that can outlast a run. The benchmark times this loop around each piece
of timed work and scales that work's time to nominal machine speed by
it. The module imports nothing from reckit, so a fresh interpreter can
gauge itself before it imports the package.
"""

from __future__ import annotations

import math
import time

# gauge_ns() at nominal machine speed: its typical fastest time on a
# 2-vCPU Intel Xeon cloud VM under CPython 3.11.7.
NOMINAL_NS = 3.1e5


def gauge_ns() -> int:
    """Time one run of the loop (64-bit integer mixing, float math and a
    dict), the kinds of work reckit's hot paths do."""
    t0 = time.perf_counter_ns()
    acc = 0.0
    seen = {}
    for i in range(1000):
        z = (i * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z ^= z >> 31
        acc += math.log1p((z >> 11) * 2.0 ** -53)
        seen[i & 255] = acc
    return time.perf_counter_ns() - t0
