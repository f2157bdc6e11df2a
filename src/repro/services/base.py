"""The service contract: what an application must provide to be replicated.

The protocol never interprets operations — it hands them to the service and
ships the resulting state. A service that wants cheap state transfer
implements ``apply_delta`` (DELTA mode) and/or ``replay`` (REPRO mode);
``snapshot``/``restore`` (FULL mode) are mandatory because new-leader
recovery and replica catch-up always use full snapshots. A service that
serves T-Paxos transactions needs ``apply_delta`` in every mode: the leader
keeps a transaction's effects as its ops' deltas until the commit's turn
in the pipeline, then applies them (:mod:`repro.core.tpaxos`).

Nondeterminism enters exclusively through the :class:`ExecutionContext`:
``ctx.rng`` (random choices — the resource-broker example) and ``ctx.now``
(execution-time dependence — the grid-scheduler example). A service that
never touches the context is deterministic and could also be replicated by
plain Multi-Paxos (``StateTransferMode.SMR``: requests only, every replica
re-executes); the point of the paper is that services which *do* touch it
cannot.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Any

from repro.errors import ServiceError


@dataclass(frozen=True, slots=True)
class ExecutionContext:
    """Sources of nondeterminism available to a service operation."""

    rng: random.Random
    now: float
    #: Transaction id when executing inside a T-Paxos transaction, else None.
    txn: str | None = None


@dataclass(frozen=True, slots=True)
class ExecutionResult:
    """What executing one operation produced.

    * ``reply`` — the client-visible result.
    * ``delta`` — a state update for DELTA-mode transfer (None if the
      service does not support deltas or the op changed nothing).
    * ``repro`` — reproduction info for REPRO-mode transfer: enough for a
      backup to re-execute the op deterministically.
    """

    reply: Any = None
    delta: Any = None
    repro: Any = None


class Service(abc.ABC):
    """Base class for replicated application services."""

    #: Human-readable service name (used in logs and reports).
    name: str = "service"

    # ------------------------------------------------------------- execution
    @abc.abstractmethod
    def execute(self, op: Any, ctx: ExecutionContext) -> ExecutionResult:
        """Execute one operation. Only the leader calls this."""

    # ---------------------------------------------------------- FULL transfer
    @abc.abstractmethod
    def snapshot(self) -> Any:
        """A deep, immutable-by-convention copy of the full service state."""

    @abc.abstractmethod
    def restore(self, snap: Any) -> None:
        """Replace the service state with ``snap``."""

    # --------------------------------------------------------- DELTA transfer
    def apply_delta(self, delta: Any) -> None:
        """Apply a state update produced by the leader. Optional, but a
        transactional service must implement it."""
        raise ServiceError(f"{self.name} does not support DELTA state transfer")

    # --------------------------------------------------------- REPRO transfer
    def replay(self, op: Any, repro: Any) -> Any:
        """Re-execute ``op`` deterministically given reproduction info.

        Must leave the service in exactly the state the leader reached.
        Optional; returns the reply value.
        """
        raise ServiceError(f"{self.name} does not support REPRO state transfer")

    # ----------------------------------------------------------- transactions
    def locks_for(self, op: Any) -> tuple[frozenset, frozenset]:
        """``(read_keys, write_keys)`` the operation touches, for the strict
        2PL lock manager. The default — no keys — means the op conflicts
        with nothing; transactional services should override."""
        return frozenset(), frozenset()

    # ----------------------------------------------------------- introspection
    def state_fingerprint(self) -> Any:
        """A hashable digest of the current state, used by tests to check
        replica convergence. Defaults to the snapshot (must then be
        hashable or comparable)."""
        return self.snapshot()
