"""Replica configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, require_finite
from repro.storage import FSYNC_MODES
from repro.types import ProcessId, StateTransferMode

#: Period of the leader's anti-entropy FrontierProbe broadcast (seconds).
SYNC_INTERVAL = 0.25


@dataclass(frozen=True, slots=True)
class ReplicaConfig:
    """Static configuration shared by all replicas of one service group.

    * ``peers`` — all replica ids, including the local one.
    * ``state_mode`` — how proposal state is shipped (§3.3).
    * ``xpaxos_reads`` — serve reads via X-Paxos (§3.4); when False, reads
      are totally ordered through the basic protocol like writes.
    * ``accept_retry`` / ``prepare_retry`` — retransmission intervals for
      the leader's in-flight Accept and Prepare rounds ("if the leader
      fails to receive the expected response ... it retransmits").
    * ``checkpoint_interval`` — take a stable checkpoint (and compact the
      log) every this many applied instances.
    * ``max_batch`` — upper bound on instances per pipeline accept round
      (real implementations are bounded by message size / socket buffers).
    """

    peers: tuple[ProcessId, ...]
    state_mode: StateTransferMode = StateTransferMode.FULL
    xpaxos_reads: bool = True
    accept_retry: float = 1.0
    prepare_retry: float = 1.0
    checkpoint_interval: int = 100
    max_batch: int = 8
    #: Abort an ACTIVE transaction idle this long, in seconds (0
    #: disables). A client that abandons a transaction mid-stream — e.g.
    #: a stale leader answered one of its ops with ABORTED during a
    #: partial view change, so it retried under a fresh txn id — would
    #: otherwise leave the real leader holding the old locks forever.
    txn_timeout: float = 2.0
    #: Service execution time E per request, in seconds (0 for the paper's
    #: empty-method benchmark service). Modeled, not burned: the leader
    #: finishes executing E seconds after it starts.
    execute_time: float = 0.0
    #: Stable-storage durability mode (:mod:`repro.storage`): ``async``
    #: keeps the legacy zero-latency semantics (appends durable at once,
    #: byte-identical to the pre-storage simulator); ``sync`` fsyncs at
    #: every durability barrier.
    fsync_mode: str = "async"
    #: Modeled device latency of one fsync, in seconds.
    fsync_latency: float = 5e-4
    #: Maintain the cumulative chosen-request-id fold in checkpoints so
    #: the acked-durability invariant can attribute survival. Off by
    #: default: the fold grows with the run and is only read by chaos.
    track_commits: bool = False

    def __post_init__(self) -> None:
        if len(self.peers) < 1:
            raise ConfigError("need at least one replica")
        if len(set(self.peers)) != len(self.peers):
            raise ConfigError(f"duplicate peer ids: {self.peers}")
        if self.checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1")
        require_finite(
            self, "accept_retry", "prepare_retry", "txn_timeout", "execute_time",
            "fsync_latency",
        )
        for name in ("accept_retry", "prepare_retry"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        for name in ("execute_time", "txn_timeout"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.fsync_mode not in FSYNC_MODES:
            raise ConfigError(
                f"fsync_mode must be one of {FSYNC_MODES}, got {self.fsync_mode!r}"
            )
        if self.fsync_latency <= 0:
            raise ConfigError("fsync_latency must be > 0")

    @property
    def n(self) -> int:
        return len(self.peers)

    @property
    def majority(self) -> int:
        """Quorum size: ceil((n+1)/2) processes, as required in §3.1."""
        return self.n // 2 + 1

    @property
    def max_faults(self) -> int:
        """t = floor((n-1)/2): how many replica crashes are tolerated."""
        return (self.n - 1) // 2

    def others(self, pid: ProcessId) -> tuple[ProcessId, ...]:
        return tuple(p for p in self.peers if p != pid)
