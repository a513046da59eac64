"""Machine-speed probe, so that times from a shared, drifting machine compare.

On a machine shared with other tenants the same pure-Python loop can take
anywhere from 1x to 2x its usual time, and the speed drifts over tens of
seconds: whole runs land in fast or slow periods, and no amount of repetition
inside a run averages that out. The benchmark therefore runs this fixed
probe between operations and rescales each operation's wall time to a
machine on which one probe takes REFERENCE_S seconds:

    reported = measured * REFERENCE_S / probe

where `probe` is the mean of the probes just before and just after the
operation. The probe exercises the interpreter loop and small-object
allocation, which dominate nzcgraph's own code. Raw wall times are kept
next to the rescaled ones in the result files.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.006


def probe() -> float:
    """Best of three runs of a fixed kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(40_000):
            acc += i * i
        table = {((i * 7919) % 10007, i): i for i in range(8_000)}
        sorted(table)
        best = min(best, time.perf_counter() - start)
    return best
