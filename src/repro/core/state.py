"""State transfer between leader and backups (§3.3).

The value chosen by consensus instance *i* is ``<req_i, state_i>``. Shipping
the *whole* service state can be expensive, so the paper sketches three
options, all implemented here as :class:`repro.types.StateTransferMode`:

* ``FULL`` — the payload is a complete service snapshot; backups install it.
* ``DELTA`` — the payload is the state update produced by executing the
  request; backups apply it on top of the previous state. Requires the
  backups to agree on the previous state — guaranteed because the leader
  proposes instances strictly in order.
* ``REPRO`` — the payload is reproduction info (e.g. the random draw or the
  scheduling decision); backups re-execute the request deterministically
  given that info. This is the paper's grid-scheduler example: "the primary
  only needs to send the state of its queue when it selects a new request".
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

from repro.errors import ProtocolError
from repro.types import StateTransferMode
from repro.util.fastpickle import fast_pickle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.services.base import Service


@fast_pickle
@dataclass(frozen=True, slots=True)
class StatePayload:
    """The ``state`` half of a chosen ``<req, state>`` tuple.

    ``data`` is interpreted according to ``mode``; for transaction commits it
    is a tuple with one element per operation in the transaction.
    """

    mode: StateTransferMode
    data: Any


def build_payload(
    mode: StateTransferMode,
    service: "Service",
    results: "Sequence[Any]",
) -> StatePayload:
    """Build the payload the leader attaches to a proposal.

    ``results`` are the :class:`repro.services.base.ExecutionResult`s of
    the bundled operations, in execution order — one for a plain write,
    several for a transaction commit (the commit itself contributes a
    result with ``delta=None``/``repro=None``).

    In FULL mode the snapshot must be taken at *proposal* time (i.e. when
    this function runs inside the leader's sequential pipeline), so that it
    reflects exactly the instances proposed so far. The leader's service
    copy holds nothing else: an open transaction keeps its effects in its
    own record until its commit's turn (:mod:`repro.core.tpaxos`).
    """
    if mode is StateTransferMode.FULL:
        return StatePayload(mode, service.snapshot())
    if mode is StateTransferMode.DELTA:
        return StatePayload(mode, tuple(r.delta for r in results))
    if mode is StateTransferMode.REPRO:
        return StatePayload(mode, tuple(r.repro for r in results))
    if mode is StateTransferMode.SMR:
        # Classic state-machine replication: the request itself is the only
        # thing replicated; backups re-execute (deterministic services only).
        return StatePayload(mode, None)
    raise ProtocolError(f"unknown state transfer mode {mode!r}")


def apply_payload(
    payload: StatePayload,
    service: "Service",
    request_ops: tuple[Any, ...],
) -> None:
    """Apply a chosen proposal's state to a backup's service copy.

    ``request_ops`` are the operation payloads of the chosen request bundle
    (one for a plain write; the ops plus a trailing ``None`` for the commit
    marker of a transaction); only REPRO mode needs them (to re-execute
    deterministically).
    """
    if payload.mode is StateTransferMode.FULL:
        service.restore(payload.data)
        return
    if payload.mode is StateTransferMode.DELTA:
        for delta in payload.data:
            if delta is not None:
                service.apply_delta(delta)
        return
    if payload.mode is StateTransferMode.REPRO:
        if len(payload.data) != len(request_ops):
            raise ProtocolError(
                f"REPRO payload has {len(payload.data)} entries for "
                f"{len(request_ops)} ops"
            )
        for op, repro in zip(request_ops, payload.data, strict=True):
            if op is None and repro is None:
                continue  # the commit marker itself
            service.replay(op, repro)
        return
    raise ProtocolError(f"unknown state transfer mode {payload.mode!r}")
