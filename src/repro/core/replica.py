"""One replication group registered as a process of its own (§3.1).

The protocol machinery — acceptor, proposer, log, service copy, read and
transaction coordinators, recovery — lives in
:class:`repro.core.group.ReplicationGroup`, the per-shard unit.
:class:`Replica` is one such group standing alone: group 0, private storage
pump, bare (un-enveloped) peer traffic. The simulated cluster never builds
it — every process there is a :class:`repro.shard.host.GroupHost`. It is
the unit for a bare runtime (``benchmarks/suite`` runs it on
:class:`~repro.transport.tcp.TcpRuntime`) and the reference implementation
``tests/integration/test_process_model.py`` compares ``groups=1`` against.
"""

from __future__ import annotations

from repro.core.group import ReplicaRole, ReplicationGroup
from repro.types import GroupId

__all__ = ["Replica", "ReplicaRole"]


class Replica(ReplicationGroup):
    """A standalone replica: one replication group owning its process."""

    @property
    def groups(self) -> dict[GroupId, ReplicationGroup]:
        """The groups this process hosts — itself — under the name a
        :class:`~repro.shard.host.GroupHost` uses, so the invariant layer
        reads a bare-runtime deployment the way it reads a cluster."""
        return {self.group: self}
