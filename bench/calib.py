"""Reference-speed calibration of the benchmark's end-to-end timings.

The benchmark runs on shared machines whose speed drifts, within seconds and
over minutes, by up to 2x, and every workload slows and speeds up with it.
To take that drift out of the timings, a fixed pure-Python loop is timed next
to the ops, after each block of at least ``BLOCK_NS`` of op time, and every
op's wall time is scaled by ``NOMINAL_NS`` over the mean of the loop times
measured just before and just after its block.  The result is a
reference-speed time: what the op takes on a machine where the loop takes
``NOMINAL_NS``.  It is proportional to the op's own cost, so a faster plpcr
gives a proportionally smaller figure.

Standard library only: bench/spawn.py imports it.
"""
from __future__ import annotations

import math
import statistics
import time

NOMINAL_NS = 2_000_000
BLOCK_NS = 50_000_000
_LOOP = 4000


def _step(x: float, i: int) -> float:
    return math.sqrt(x + i) * 0.5 + (i % 7)


def reference_ns() -> int:
    """Wall time of one run of the fixed loop: float arithmetic, calls,
    small allocations, as in plpcr's own per-replication work."""
    t0 = time.perf_counter_ns()
    acc, kept = 0.0, {}
    for i in range(1, _LOOP):
        x = _step(acc, i)
        kept[i & 63] = (x, i)
        acc = math.log(x + 1.0) + acc * 0.001
    t1 = time.perf_counter_ns()
    if not math.isfinite(acc) or len(kept) != 64:
        raise AssertionError("calibration loop gave an unexpected result")
    return t1 - t0


def reference_median() -> float:
    """Median of five loop times, for timing one long stretch of work such
    as a set-up, where a single loop time is too noisy a sample."""
    return statistics.median(reference_ns() for _ in range(5))


class Calibrator:
    """Gives every op the mean loop time around the block it is in."""

    def __init__(self) -> None:
        self.ref_ns: list[float] = []
        self._pending = 0
        self._block_ns = 0
        self._before = reference_ns()

    def op_done(self, ns: int) -> None:
        self._pending += 1
        self._block_ns += ns
        if self._block_ns >= BLOCK_NS:
            self.close_block()

    def close_block(self) -> None:
        if self._pending:
            after = reference_ns()
            self.ref_ns.extend([(self._before + after) / 2] * self._pending)
            self._before = after
            self._pending = 0
            self._block_ns = 0
