"""The discrete-event simulation kernel: a virtual clock plus an event heap.

The kernel is deliberately minimal — it knows nothing about processes or
messages. Everything above it (network delivery, CPU completion, protocol
timers) is expressed as a scheduled callback. Events scheduled for the same
virtual time fire in schedule order (FIFO tie-breaking via a sequence
number), which keeps runs fully deterministic.

Hot-path notes (this module dominates large sweeps, so it is tuned):

* Heap entries are ``(time, seq, ...)`` tuples, so heap sifting compares
  at C speed — no Python ``__lt__`` per comparison. ``seq`` is unique,
  which both breaks ties FIFO and guarantees nothing after it is ever
  compared.
* Internal fire-and-forget events (message deliveries — the bulk of all
  events) go through :meth:`post_at` and *are* their heap entry,
  ``(time, seq, fn, args)``: no handle object exists for an event nobody
  can cancel (the perf tier pins this via :attr:`handles_created`). A
  cancellable event is ``(time, seq, handle, None)``; the one loop tells
  the two apart by ``args is None``.
* Cancellation is *slot-indexed*: every handle knows its kernel, so a
  cancel updates an O(1) live-event counter instead of the heap being
  re-scanned. ``pending`` is a subtraction, and when cancelled events
  outnumber live ones the heap is compacted **in place** (same list
  object, so ``run``'s local binding stays valid even when a callback
  triggers compaction mid-run).
* :meth:`run` inlines the pop loop — no call per event, and the heap
  is bound once outside the loop.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable
from heapq import heapify, heappop, heappush
from typing import Any

from repro.errors import SimulationError

#: Compact the heap once this many cancelled events have accumulated *and*
#: they outnumber the live ones (see :meth:`Kernel._maybe_compact`).
_COMPACT_MIN_CANCELLED = 512


class EventHandle:
    """Handle for a scheduled event; allows cancellation.

    Cancellation is *lazy*: the event stays in the heap but is skipped when
    popped. This is the standard O(1)-cancel trick for simulation heaps —
    plus a per-kernel cancelled counter so ``pending`` never re-scans and
    dense cancellation triggers compaction.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "kernel")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., None],
        args: tuple,
        kernel: "Kernel | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn: Callable[..., None] | None = fn
        self.args = args
        self.cancelled = False
        #: Owning kernel (None for handles created outside a kernel, e.g.
        #: in unit tests that exercise the handle directly).
        self.kernel = kernel

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self.fn = None          # release references early
        self.args = ()
        kernel = self.kernel
        if kernel is not None:
            kernel._cancelled += 1
            kernel._maybe_compact()

    @property
    def active(self) -> bool:
        """True until the event fires or is cancelled."""
        return not self.cancelled

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


class Kernel:
    """Single-threaded deterministic event loop with a virtual clock.

    Time is in **seconds** (floats). The kernel is reproducible: the same
    seed and the same sequence of ``schedule`` calls yield the identical
    execution, which the protocol safety tests rely on.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now: float = 0.0
        #: Heap of ``(time, seq, fn, args)`` fire-and-forget events and
        #: ``(time, seq, EventHandle, None)`` cancellable ones — tuple
        #: comparison stays in C and never reaches the third element.
        self._heap: list[tuple[float, int, Any, tuple | None]] = []
        self._seq = itertools.count()
        self._seed = seed
        self._running = False
        self.events_processed = 0
        #: Cancelled events still sitting in the heap (slot-index bookkeeping).
        self._cancelled = 0
        #: Total EventHandle objects ever constructed: one per cancellable
        #: event, none for :meth:`post_at` traffic (the perf tier pins that).
        self.handles_created = 0

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def seed(self) -> int:
        return self._seed

    def rng(self, name: str) -> random.Random:
        """A deterministic RNG stream derived from the kernel seed and ``name``.

        Distinct names give independent streams; the same (seed, name) pair
        always gives the same stream, no matter how many other streams exist.
        """
        return random.Random(f"{self._seed}/{name}")

    # ------------------------------------------------------------ scheduling
    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``.

        The returned handle may be held and cancelled at any point. Internal
        callers that discard the handle should use :meth:`post_at` instead,
        which creates none.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        seq = next(self._seq)
        handle = EventHandle(time, seq, fn, args, self)
        self.handles_created += 1
        heappush(self._heap, (time, seq, handle, None))
        return handle

    def post_at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule a fire-and-forget event at absolute time ``time``.

        The fast path for internal machinery (message deliveries): the heap
        entry is the event, so nothing is allocated beyond it and nothing
        can cancel it — callers that need cancellation must use
        :meth:`schedule_at`.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        heappush(self._heap, (time, next(self._seq), fn, args))

    # ------------------------------------------------------------ compaction
    def _maybe_compact(self) -> None:
        """Drop cancelled events when they dominate the heap.

        Rebuilds **in place** (slice assignment + heapify) so any local
        bindings of the heap list made by :meth:`run` stay valid.
        """
        heap = self._heap
        if self._cancelled < _COMPACT_MIN_CANCELLED or self._cancelled * 2 < len(heap):
            return
        heap[:] = [
            entry for entry in heap if entry[3] is not None or not entry[2].cancelled
        ]
        heapify(heap)
        self._cancelled = 0

    # --------------------------------------------------------------- running
    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have fired. Returns the number of events processed.

        When ``until`` is given and nothing due by then is left, the clock
        is advanced to exactly ``until`` on return even if the heap drained
        earlier — so back-to-back ``run`` calls behave like contiguous
        wall-clock intervals. A run that ``max_events`` stopped short of
        ``until`` leaves the clock at the last event it fired: events due
        before ``until`` are still pending.
        """
        if self._running:
            raise SimulationError("kernel.run() is not reentrant")
        self._running = True
        processed = 0
        # Loop-local binding: the heap list object is stable (compaction is
        # in-place).
        heap = self._heap
        unlimited = max_events is None
        try:
            while heap:
                time, _seq, fn, args = heap[0]
                if args is None and fn.cancelled:
                    heappop(heap)
                    self._cancelled -= 1
                    continue
                if until is not None and time > until:
                    break
                if not unlimited and processed >= max_events:
                    break
                heappop(heap)
                self._now = time
                if args is None:  # a cancellable event: ``fn`` is its handle
                    handle = fn
                    fn = handle.fn
                    args = handle.args
                    handle.cancelled = True
                    handle.fn = None
                    handle.args = ()
                fn(*args)
                processed += 1
        finally:
            self.events_processed += processed
            self._running = False
        # The head, if any, is live here: cancelled ones were popped above.
        if until is not None and self._now < until and (not heap or heap[0][0] > until):
            self._now = until
        return processed

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still in the heap (O(1))."""
        return len(self._heap) - self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel now={self._now:.6f}s pending={self.pending}>"
