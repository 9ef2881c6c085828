"""A fixed pure-Python loop that measures how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose per-cycle speed
swings by up to 2x, in waves from seconds to minutes long, with other
tenants' load; CPU time swings as much as wall time.  A timed pass alone
therefore measures the neighbours as much as `cit`.  The benchmark times
this loop in the same process right before and right after each pass and
rescales the pass to the speed at which the loop takes `NOMINAL_S`:

    normalized = measured * NOMINAL_S / reference

The loop uses nothing from `cit`, so a change to `cit` moves the
normalized time exactly as it moves the measured one, while a slow wave
of the host moves both the pass and the loop and cancels.  Pure Python,
because the interpreter-bound code the workloads spend most of their time
in is what the waves slow most.
"""

from __future__ import annotations

import time

#: loop iterations; about 0.06 s on a quiet 2-vCPU Xeon host
ITERATIONS = 450_000
#: the loop's time, in seconds, that normalized times are scaled to: about
#: its fastest time on that host, so normalized seconds read as wall
#: seconds at full speed
NOMINAL_S = 0.06


def reference_s() -> float:
    """Seconds the fixed loop takes now."""
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - start
