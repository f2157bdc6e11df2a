"""Host-speed calibration: what a "host second" means in this suite.

The box this suite was written on is a shared VM whose speed drifts by
5-10% over minutes (per-repeat rates of one process agree within ~2%, two
runs a minute apart do not). A drift that size would force a bound no
optimisation could be judged against, so every timed repeat is bracketed by
a short, program-independent spin loop, and its wall time is converted into
*reference-host* seconds: ``wall * SPIN_REFERENCE_S / spin``. On a quiet
host exactly as fast as the reference the factor is 1 and the numbers are
plain wall-clock rates; ``host.speed_ratio`` in the traced pass says what
the factor was, so the raw rate is always recoverable.

The spin executes only interpreter work the program also leans on (method
calls on a slotted object, float arithmetic, heap push/pop, dict get/set),
touches nothing under ``src/``, and so cannot be sped up by a change to the
program. The minimum of a few short spins is used: a slowdown that lasts
(a busy sibling core, a throttled clock) stretches all of them, a stray
interrupt only one.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush

#: Seconds one spin takes on the reference host (this suite's home VM when
#: quiet, CPython 3.11). Changing it rescales every host-time rate.
SPIN_REFERENCE_S = 0.012
SPIN_ITERATIONS = 20_000
SPINS_PER_READING = 5


class _Cell:
    __slots__ = ("busy", "count")

    def __init__(self) -> None:
        self.busy = 0.0
        self.count = 0

    def book(self, now: float, cost: float) -> float:
        start = now if now > self.busy else self.busy
        self.busy = start + cost
        self.count += 1
        return self.busy


def spin() -> float:
    """Seconds this host needs for one fixed unit of interpreter work."""
    heap: list[tuple[float, int, _Cell]] = []
    table: dict[tuple[str, int], int] = {}
    cell = _Cell()
    now = 0.0
    started = time.perf_counter()
    for i in range(SPIN_ITERATIONS):
        now = cell.book(now, 1e-6)
        heappush(heap, (now, i, cell))
        key = ("k", i & 255)
        table[key] = table.get(key, 0) + 1
        if i & 3 == 3:
            heappop(heap)
            heappop(heap)
    return time.perf_counter() - started


def spin_reading() -> float:
    """The host's current speed, as seconds per spin (lower is faster)."""
    return min(spin() for _ in range(SPINS_PER_READING))


def reference_seconds(wall_s: float, spin_before: float, spin_after: float) -> float:
    """``wall_s`` on this host, expressed in reference-host seconds."""
    return wall_s * SPIN_REFERENCE_S / ((spin_before + spin_after) / 2)
