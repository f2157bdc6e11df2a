"""Network partition injection.

A partition is a set of disjoint groups of processes; messages between
processes in *different* groups are dropped. Processes not mentioned in any
group are unrestricted — they can talk to everyone (convenient for
partitioning only the replica set while leaving clients connected).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.errors import ConfigError
from repro.types import ProcessId


class PartitionController:
    """Tracks the current partition; consulted by the network on every send."""

    def __init__(self) -> None:
        self._group_of: dict[ProcessId, int] = {}
        #: Whether a partition is installed: a plain attribute, because the
        #: network reads it on every send before it asks :meth:`blocked`.
        self.active = False

    def partition(self, groups: Iterable[Iterable[ProcessId]]) -> None:
        """Install a partition. Replaces any previous one."""
        group_of: dict[ProcessId, int] = {}
        for index, group in enumerate(groups):
            for pid in group:
                if pid in group_of:
                    raise ConfigError(f"process {pid!r} appears in two partition groups")
                group_of[pid] = index
        self._group_of = group_of
        self.active = bool(group_of)

    def heal(self) -> None:
        """Remove the partition entirely."""
        self._group_of = {}
        self.active = False

    def isolate(self, pid: ProcessId, others: Iterable[ProcessId]) -> None:
        """Convenience: put ``pid`` alone on one side, ``others`` on the other."""
        self.partition([[pid], list(others)])

    def blocked(self, src: ProcessId, dst: ProcessId) -> bool:
        """True when the partition forbids ``src`` -> ``dst`` delivery."""
        gs = self._group_of.get(src)
        gd = self._group_of.get(dst)
        if gs is None or gd is None:
            return False
        return gs != gd
