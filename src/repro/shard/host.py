"""The replica process: one replica of every replication group.

A :class:`GroupHost` is the unit the world registers, crashes and
recovers, and the only replica process :class:`repro.cluster.harness.Cluster`
builds, for one group and for N alike. Inside it live N
:class:`repro.core.group.ReplicationGroup` instances — one replica of each
shard — all sharing the process's
:class:`repro.storage.store.StoragePump` (one simulated platter, one
fsync clock, one crash) and the process's network identity.

Wire format: traffic *between replica processes* travels wrapped in
:class:`repro.core.messages.GroupEnvelope` so the receiving host knows
which of its groups the Prepare/Accept/heartbeat belongs to; observers
name such a message by its payload (:class:`repro.sim.process.Envelope`).
Traffic to clients (Replies) goes bare — clients are group-oblivious.
Bare :class:`~repro.core.requests.ClientRequest` broadcasts arriving from
clients are routed host-side through the deterministic
:class:`~repro.shard.router.ShardRouter`: every host hands the request to
the same group, and that group's leader answers.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.core.config import ReplicaConfig
from repro.core.group import ReplicationGroup
from repro.core.messages import GroupEnvelope
from repro.core.requests import ClientRequest
from repro.election.base import LeaderElector
from repro.obs.handle import NULL_OBS, Obs
from repro.services.base import Service
from repro.shard.router import ShardRouter
from repro.sim.process import Env, Process, TimerHandle
from repro.storage.store import StoragePump
from repro.types import GroupId, ProcessId


class GroupEnv(Env):
    """One group's view of its host process's environment.

    Delegates everything to the host's real environment (``env``, set by
    :meth:`GroupHost.bind` when the world registers the host) and stamps
    outgoing peer traffic with the group id. The group id travels
    *outside* the protocol message — protocol code stays shard-oblivious.
    """

    __slots__ = ("host", "group", "env", "_send_counters")

    def __init__(self, host: "GroupHost", group: ReplicationGroup) -> None:
        self.host = host
        self.group = group
        self.env: Env | None = None
        self._send_counters: dict[type, Any] = {}

    @property
    def pid(self) -> ProcessId:
        return self.host.pid

    @property
    def now(self) -> float:
        return self.env.now

    @property
    def rng(self) -> random.Random:
        return self.env.rng

    def idle_at(self) -> float:
        return self.env.idle_at()

    def _wrap(self, msg: Any, copies: int) -> GroupEnvelope:
        """Envelope ``msg`` and count it under the group's own scope
        (``proc.<pid>.g<N>.send.<Type>``): the world counts per process
        and per type, this row says which group sent it."""
        counter = self._send_counters.get(type(msg))
        if counter is None:
            counter = self._send_counters[type(msg)] = self.group.metrics.counter(
                f"send.{type(msg).__name__}"
            )
        counter.inc(copies)
        return GroupEnvelope(self.group.group, msg)

    def send(self, dst: ProcessId, msg: Any) -> None:
        if dst in self.host.peer_set:
            self.env.send(dst, self._wrap(msg, 1))
        else:
            self.env.send(dst, msg)  # replies to clients go bare

    def broadcast(self, dsts: Iterable[ProcessId], msg: Any) -> None:
        """Groups only ever broadcast to peers: one envelope for all of
        them, so the world sizes the broadcast once."""
        dsts = tuple(dsts)
        self.env.broadcast(dsts, self._wrap(msg, len(dsts)))

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> TimerHandle:
        return self.env.set_timer(delay, fn, *args)


class GroupHost(Process):
    """A process hosting one replica of each shard: group ``g`` is led by
    ``electors[g]``, so the sequence's length is the group count.

    ``obs`` is the run's unscoped handle. The host names the scopes: its
    own process-wide rows (``storage.fsyncs``, read by the pump through
    ``host``) go under ``proc.<pid>``, group ``g``'s under
    ``proc.<pid>.g<g>`` — the same scope :class:`GroupEnv` counts that
    group's sends in.
    """

    def __init__(
        self,
        pid: ProcessId,
        config: ReplicaConfig,
        service_factory: Callable[[], Service],
        electors: Sequence[LeaderElector],
        obs: Obs = NULL_OBS,
    ) -> None:
        super().__init__(pid)
        self.config = config
        self.peer_set = frozenset(config.peers)
        self.router = ShardRouter(len(electors))
        self.metrics = obs.metrics.scope(pid)
        self.tracer = obs.tracer
        #: One durable substrate for the whole process.
        self.pump = StoragePump(self)
        self.groups: dict[GroupId, ReplicationGroup] = {}
        for group_id, elector in enumerate(electors):
            group = ReplicationGroup(
                pid,
                config,
                service_factory,
                elector,
                group=group_id,
                pump=self.pump,
                obs=obs.scoped(f"{pid}.g{group_id}"),
            )
            group.bind(GroupEnv(self, group))
            self.groups[group_id] = group

    # ------------------------------------------------------------- lifecycle
    def bind(self, env: Env) -> None:
        super().bind(env)
        for group in self.groups.values():
            group.env.env = env

    def on_start(self) -> None:
        for group_id in sorted(self.groups):
            self.groups[group_id].on_start()

    def on_crash(self) -> None:
        # One power cut hits every group; the pump is idempotent, so each
        # group's own crash hook may also touch it safely.
        self.pump.crash()
        for group_id in sorted(self.groups):
            group = self.groups[group_id]
            group.alive = False
            group.on_crash()

    def on_recover(self) -> None:
        for group_id in sorted(self.groups):
            group = self.groups[group_id]
            group.alive = True
            group.on_recover()  # may fail-stop the group (alive = False)
        if not any(group.alive for group in self.groups.values()):
            # The device refused replay: the whole process fail-stops.
            self.alive = False

    # --------------------------------------------------------------- routing
    def on_message(self, src: ProcessId, msg: Any) -> None:
        if type(msg) is GroupEnvelope:
            group = self.groups.get(msg.group)
            if group is None or not group.alive:
                self.metrics.counter("dropped_group_messages").inc()
                return
            group.on_message(src, msg.msg)
            return
        if type(msg) is ClientRequest:
            group = self.groups[self.router.group_for_request(msg)]
            if group.alive:
                group.on_message(src, msg)
            return
        self.metrics.counter("unknown_messages").inc()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "crashed"
        return f"<GroupHost {self.pid} groups={len(self.groups)} ({status})>"
