"""Per-process CPU occupancy model.

The paper's benchmark service executes an *empty method*, so the measured
cost of a request is message handling: system-call / serialization /
protocol work at each end of every message. We model that as a single-server
FIFO queue per process: each message charges a fixed send or receive cost,
and work queues when the process is saturated. This is what makes the
closed-loop throughput curves (Figs. 5–9) saturate instead of growing
linearly with the client count.

``extra_per_message`` models per-connection bookkeeping overhead (poll/select
scanning, cache pressure): the experiment harness sets it proportionally to
the number of concurrent clients, which reproduces the peak-then-decline
shape of Fig. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True, slots=True)
class CpuProfile:
    """Static CPU cost parameters for one process, in seconds.

    * ``send_cost`` — CPU time to emit one message.
    * ``recv_cost`` — CPU time to receive + handle one message.
    * ``execute_cost`` — CPU time for the service's actual operation
      (zero for the paper's empty-method benchmark service).
    * ``extra_per_message`` — additional per-message overhead, used to model
      per-connection scanning costs that grow with the client population.
    """

    send_cost: float = 0.0
    recv_cost: float = 0.0
    execute_cost: float = 0.0
    extra_per_message: float = 0.0

    def scaled(self, factor: float) -> "CpuProfile":
        """A profile with all costs multiplied by ``factor`` (machine speed)."""
        return CpuProfile(
            send_cost=self.send_cost * factor,
            recv_cost=self.recv_cost * factor,
            execute_cost=self.execute_cost * factor,
            extra_per_message=self.extra_per_message * factor,
        )

    def with_extra(self, extra: float) -> "CpuProfile":
        """A copy with ``extra_per_message`` replaced (harness hook)."""
        return replace(self, extra_per_message=extra)


#: A CPU that costs nothing — useful for clients and pure-protocol tests.
FREE_CPU = CpuProfile()


@dataclass(slots=True)
class CpuModel:
    """Single-server FIFO CPU: tracks when the processor next becomes free.

    ``acquire(now, cost)`` books ``cost`` seconds of CPU starting no earlier
    than ``now`` and no earlier than the end of previously booked work, and
    returns the completion time. Total busy time is accumulated so harnesses
    can report utilization.

    The profile is fixed for the model's life: what one message books
    (``send_booking`` / ``recv_booking``) is summed from it once.
    """

    profile: CpuProfile = field(default_factory=CpuProfile)
    busy_until: float = 0.0
    busy_time: float = 0.0
    #: CPU seconds one outbound / inbound message books on this processor.
    send_booking: float = field(init=False, repr=False, compare=False)
    recv_booking: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        profile = self.profile
        self.send_booking = profile.send_cost + profile.extra_per_message
        self.recv_booking = profile.recv_cost + profile.extra_per_message
        # Checked once here: the per-message paths below book them unchecked.
        if self.send_booking < 0 or self.recv_booking < 0:
            raise ValueError(f"negative CPU cost per message: {profile}")

    def acquire(self, now: float, cost: float) -> float:
        """Book ``cost`` seconds of CPU; return the completion time."""
        if cost < 0:
            raise ValueError(f"negative CPU cost: {cost}")
        start = max(now, self.busy_until)
        self.busy_until = start + cost
        self.busy_time += cost
        return self.busy_until

    # The two per-message bookings are ``acquire`` without its frame: the
    # same float operations in the same order, twice per simulated message.
    def send_completion(self, now: float) -> float:
        """Completion time for emitting one message at/after ``now``."""
        cost = self.send_booking
        busy = self.busy_until
        self.busy_until = done = (now if now >= busy else busy) + cost
        self.busy_time += cost
        return done

    def recv_completion(self, now: float) -> float:
        """Completion time for receiving + handling one message at/after ``now``."""
        cost = self.recv_booking
        busy = self.busy_until
        self.busy_until = done = (now if now >= busy else busy) + cost
        self.busy_time += cost
        return done

    def execute_completion(self, now: float) -> float:
        """Completion time for running the service operation at/after ``now``."""
        return self.acquire(now, self.profile.execute_cost)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds this CPU spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    def reset(self) -> None:
        """Forget booked work (used on process crash: in-flight work is lost)."""
        self.busy_until = 0.0
