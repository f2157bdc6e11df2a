"""Ω-style heartbeat leader election with leader stability (§3.6).

Every replica periodically broadcasts a heartbeat carrying its current
leader view, every ``h`` (``heartbeat_interval``). Each replica tracks whom
it has heard from recently, and suspects peer ``p`` once ``p``'s own
timeout ``T_p`` has passed since its last heartbeat arrived — at that
deadline, not at the next tick: a tick arms a one-shot evaluation for a
deadline that falls before the next one.

``T_p`` follows Chandra & Toueg's eventually perfect detector ◇P: it
starts at ``2h``, one missed heartbeat, and every *false suspicion* — a
heartbeat arriving from a peer this process currently suspects — adds
``h`` to it. ``T_p`` never shrinks; it is volatile state, so it resets to
``2h`` only when this process restarts. A peer that crashes and recovers
also looks like a false suspicion, so its ``T_p`` grows too: a
crash-prone peer is suspected a little later, never wrongly forever.

The local choice is:

* keep the current leader while it is unsuspected (**stability** — the
  §3.6 requirement, after Malkhi, Oprea & Zhou [22]: a working leader is
  not deposed just because a smaller-id process comes back);
* a process that has no leader yet (boot or recovery) first waits one
  ``T_p`` *grace period* (``2h``: every ``T_p`` is fresh then), during
  which it adopts any unsuspected incumbent's self-claim — this is what
  makes a recovered small-id process defer to the working leader instead
  of electing itself;
* the grace period ends early once every peer has been heard since this
  process (re)started and each one's latest claim is ``None``: nobody
  leads, so there is no incumbent to wait for (a cluster that boots
  together elects at once). One claim that is not ``None``, or one peer
  not yet heard, keeps the full grace period;
* if the grace period passes with no incumbent heard, elect the
  smallest-id unsuspected process.

This implements Ω under the usual partial-synchrony assumption: once
message delays stabilize, each ``T_p`` stops growing after finitely many
false suspicions, and all correct replicas converge on the same (correct)
leader forever. Before that, views may disagree — ballot numbers in the
replication protocol keep that safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.election.base import LeaderElector
from repro.types import ProcessId


@dataclass(frozen=True, slots=True)
class Heartbeat:
    """I am alive; ``claims`` is my current leader view (None if undecided).

    Election traffic, invisible to the replication protocol.
    """

    sender: ProcessId
    claims: ProcessId | None = None


class OmegaElector(LeaderElector):
    """Heartbeat-based eventual leader election with stability."""

    def __init__(self, heartbeat_interval: float = 0.05) -> None:
        super().__init__()
        if not heartbeat_interval > 0:
            raise ValueError(f"heartbeat_interval must be > 0, got {heartbeat_interval}")
        self.heartbeat_interval = heartbeat_interval
        self._last_heard: dict[ProcessId, float] = {}
        #: Each peer's suspicion timeout ``T_p``: ``2h`` at (re)start, plus
        #: ``h`` per false suspicion of that peer.
        self.timeouts: dict[ProcessId, float] = {}
        #: Each peer's latest leader claim heard since this process (re)started.
        self._claims: dict[ProcessId, ProcessId | None] = {}
        self._leader: ProcessId | None = None
        self._grace_until = 0.0
        self._running = False
        #: Local leader-view changes (stats for the §3.6 experiments).
        self.switches = 0

    # ------------------------------------------------------------- lifecycle
    def on_start(self) -> None:
        assert self.host is not None
        self._running = True
        self._leader = None
        self._claims.clear()
        now = self.host.now
        fresh = 2 * self.heartbeat_interval
        for peer in self.peers:
            self._last_heard[peer] = now
            self.timeouts[peer] = fresh
        # Grace period: listen for an incumbent before electing anyone.
        self._grace_until = now + fresh
        self._beat()
        self._tick()

    def on_crash(self) -> None:
        self._running = False
        self._leader = None

    def on_recover(self) -> None:
        self.on_start()

    # -------------------------------------------------------------- heartbeat
    def _beat(self) -> None:
        if not self._running:
            return
        assert self.host is not None
        others = tuple(p for p in self.peers if p != self.host.pid)
        self.host.broadcast(others, Heartbeat(sender=self.host.pid, claims=self._leader))
        self.host.set_timer(self.heartbeat_interval, self._beat)

    def _tick(self) -> None:
        if not self._running:
            return
        assert self.host is not None
        self._evaluate()
        # A peer whose timeout expires before the next tick is suspected at
        # its deadline, not up to one heartbeat interval late.
        now = self.host.now
        for peer, heard in self._last_heard.items():
            deadline = heard + self.timeouts[peer]
            if peer != self.host.pid and now < deadline < now + self.heartbeat_interval:
                self.host.set_timer(deadline - now, self._evaluate)
        self.host.set_timer(self.heartbeat_interval, self._tick)

    def on_message(self, src: ProcessId, msg: Any) -> bool:
        if not isinstance(msg, Heartbeat):
            return False
        if not self._running:
            return True
        assert self.host is not None
        now = self.host.now
        if now >= self._last_heard[msg.sender] + self.timeouts[msg.sender]:
            # A false suspicion: this peer was alive after all.
            self.timeouts[msg.sender] += self.heartbeat_interval
        self._last_heard[msg.sender] = now
        self._claims[msg.sender] = msg.claims
        if msg.claims == msg.sender:
            # An incumbent asserting leadership: defer to it if we have no
            # working leader of our own.
            unsuspected = self._unsuspected()
            if msg.sender in unsuspected and (
                self._leader is None or self._leader not in unsuspected
            ):
                self._set_leader(msg.sender)
        self._evaluate()
        return True

    # -------------------------------------------------------------- election
    def _unsuspected(self) -> list[ProcessId]:
        assert self.host is not None
        now = self.host.now
        alive = [
            pid
            for pid in self.peers
            if pid == self.host.pid
            or now < self._last_heard[pid] + self.timeouts[pid]
        ]
        return sorted(alive)

    def _evaluate(self) -> None:
        assert self.host is not None
        alive = self._unsuspected()
        if self._leader in alive:
            return  # stability: keep a working leader
        if (
            self._leader is None
            and self.host.now < self._grace_until
            and not self._nobody_leads()
        ):
            return  # still listening for an incumbent
        self._set_leader(alive[0] if alive else None)

    def _nobody_leads(self) -> bool:
        """Every peer has been heard since (re)start and none claims a leader."""
        return len(self._claims) == len(self.peers) - 1 and all(
            claim is None for claim in self._claims.values()
        )

    def _set_leader(self, leader: ProcessId | None) -> None:
        if leader == self._leader:
            return
        assert self.host is not None
        self._leader = leader
        self.switches += 1
        self.host.leader_changed(leader)

    def current_leader(self) -> ProcessId | None:
        return self._leader
