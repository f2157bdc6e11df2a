"""The paper's analytic latency model (§3.4), plus its T-Paxos extension.

Notation (all one-way latencies, seconds):

* ``M`` — message latency between a client and a service replica;
* ``m`` — message latency between two service replicas;
* ``E`` — execution time of the request at the service.

The paper gives:

* X-Paxos read:       ``RRT = 2M + max(E, m')``  — execution overlaps the
  confirm wait. Strictly, the confirm detour is client->backup->leader
  replacing the direct client->leader leg, so ``m'`` here is
  ``(M_backup + m) - M`` relative to request arrival; with a uniform
  topology this reduces to the paper's ``m``.
* basic protocol:     ``RRT = 2M + E + 2m``  — one extra accept round trip.
* original (baseline): ``RRT = 2M + E``.

For transactions of ``k`` requests plus a commit:

* unoptimized: each op pays its own protocol cost, the commit pays a write:
  ``TRT = sum(op RRTs) + (2M + 2m)``.
* T-Paxos: ops are answered immediately (original-cost), the commit pays
  one write: ``TRT = k*(2M + E) + (2M + 2m)``.

These functions deliberately ignore per-message CPU costs (a few µs); the
tests check that the simulator agrees with the model to within that slack.

The failover stall (§3.6 on the Ω elector) is a matter of timers, not
message counts. When the leader crashes at ``t_c``:

* *detection* — heartbeats run every ``h`` from boot, so the leader's last
  heartbeat left at ``b = h·⌈t_c/h − 1⌉``. A survivor's elector arms a
  one-shot evaluation at the instant ``2h`` after that beat arrived (one
  missed heartbeat: the leader's timeout before any false suspicion), so
  it suspects the leader at the deadline ``b + 2h`` (later only by the
  beat's one-way delay), not at its next tick;
* *ready* — the new leader serves one prepare round after detection, plus
  a closing accept round when it recovers values;
* a write in flight at the crash, or sent before detection, reached every
  replica (clients send to all of them), so the new leader holds it and
  proposes it the moment it is ready (*held*). Its accept round rides
  right behind the closing one, inside the same ``quorum_round`` bound.
  The write's retransmits are the ones that fall before it completes; the
  ``k``-th falls ``Σ_{j<k} min(cap, c·βʲ)·(1 + u_j)`` after the send,
  ``u_j ∈ [0, jitter)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class LatencyModelInputs:
    """The three parameters of the §3.4 model."""

    client_replica: float   # M
    replica_replica: float  # m
    execute: float = 0.0    # E

    def __post_init__(self) -> None:
        if self.client_replica < 0 or self.replica_replica < 0 or self.execute < 0:
            raise ValueError("latencies must be >= 0")


def original_rrt(p: LatencyModelInputs) -> float:
    """Unreplicated baseline: request + reply + execution."""
    return 2 * p.client_replica + p.execute


def xpaxos_rrt(p: LatencyModelInputs) -> float:
    """X-Paxos read (§3.4): ``2M + max(E, m)`` — the leader executes while
    the confirms travel.

    This is the read with no write in flight. A read that comes due while
    an accept round is in flight waits for that round to be chosen, so it
    finishes within ``xpaxos_rrt(p) + 2m``."""
    return 2 * p.client_replica + max(p.execute, p.replica_replica)


def basic_rrt(p: LatencyModelInputs) -> float:
    """Basic protocol write (§3.4): ``2M + E + 2m`` — the accept phase adds
    a full replica round trip on the critical path."""
    return 2 * p.client_replica + p.execute + 2 * p.replica_replica


def unoptimized_trt(p: LatencyModelInputs, reads: int, writes: int) -> float:
    """Transaction served without T-Paxos: each op pays its own protocol
    cost and the commit is one more basic-protocol round (§4.2)."""
    ops = reads * xpaxos_rrt(p) + writes * basic_rrt(p)
    commit = 2 * p.client_replica + 2 * p.replica_replica
    return ops + commit


def tpaxos_trt(p: LatencyModelInputs, k: int) -> float:
    """T-Paxos transaction of ``k`` ops (§3.5): ops at unreplicated cost,
    one coordinated commit."""
    ops = k * original_rrt(p)
    commit = 2 * p.client_replica + 2 * p.replica_replica
    return ops + commit


@dataclass(frozen=True, slots=True)
class FailoverInputs:
    """The timing knobs behind an Ω failover stall (seconds)."""

    heartbeat_interval: float  # h: Ω heartbeat and tick period
    client_timeout: float      # c
    #: Upper bound on one protocol round, fsync included: the prepare round,
    #: or the accept rounds that follow it (the closing round, if any, and
    #: the held writes' round behind it, answered to the client).
    quorum_round: float
    backoff: float = 2.0       # β
    jitter: float = 0.1
    timeout_cap: float | None = None  # default 10·c, as the client's

    def __post_init__(self) -> None:
        if not self.heartbeat_interval > 0:
            raise ValueError("heartbeat_interval must be > 0")


def detection_window(p: FailoverInputs, crash_at: float) -> tuple[float, float]:
    """``(lo, hi]``: when survivors suspect a leader that crashed at
    ``crash_at`` — the deadline itself, so ``lo == hi``."""
    h = p.heartbeat_interval
    expiry = h * math.ceil(crash_at / h - 1) + 2 * h
    return expiry, expiry


def ready_window(p: FailoverInputs, crash_at: float) -> tuple[float, float]:
    """``(lo, hi]``: when the new leader has served what it holds — a
    prepare round after detection, then the accept rounds."""
    lo, hi = detection_window(p, crash_at)
    return lo, hi + 2 * p.quorum_round


def retransmit_window(p: FailoverInputs, k: int) -> tuple[float, float]:
    """``[lo, hi)`` after its send at which a request's ``k``-th retransmit falls."""
    cap = p.timeout_cap if p.timeout_cap is not None else 10 * p.client_timeout
    base = sum(min(cap, p.client_timeout * p.backoff**j) for j in range(k))
    return base, base * (1 + p.jitter)


def stall_windows(
    p: FailoverInputs, sent_at: float, crash_at: float
) -> dict[str, tuple[int, int, float, float]]:
    """Path name -> ``(k_lo, k_hi, lo, hi)``: the RRT window ``(lo, hi]`` of
    a write sent at ``sent_at`` that the leader crashing at ``crash_at``
    left unanswered (in flight at the crash, or sent before detection), and
    the range ``[k_lo, k_hi]`` of its retransmit count. The one path is
    *held*: the new leader serves it once ready.

    ``k_lo`` retransmits surely fall before the reply; ``k_hi`` may. They
    differ when a retransmit's window overlaps the ready window, as when
    the stall is about one client timeout long."""
    ready_lo, ready_hi = ready_window(p, crash_at)
    k_lo = 0
    while sent_at + retransmit_window(p, k_lo + 1)[1] <= ready_lo:
        k_lo += 1
    k_hi = k_lo
    while sent_at + retransmit_window(p, k_hi + 1)[0] < ready_hi:
        k_hi += 1
    return {"held": (k_lo, k_hi, ready_lo - sent_at, ready_hi - sent_at)}
