"""Actor-style processes and the environment they run in.

A :class:`Process` is a message handler with timers — the unit the paper
calls a "process" (service replica or client). It is written against the
abstract :class:`Env` so the same protocol code runs unmodified on the
deterministic simulation (:class:`repro.sim.world.World`) and on the real
TCP runtime (:class:`repro.transport.tcp.TcpRuntime`).
"""

from __future__ import annotations

import abc
import random
from collections.abc import Callable, Iterable
from typing import Any

from repro.types import ProcessId


class TimerHandle(abc.ABC):
    """Cancellable handle returned by :meth:`Env.set_timer`."""

    @abc.abstractmethod
    def cancel(self) -> None:
        """Prevent the timer from firing. Idempotent."""

    @property
    @abc.abstractmethod
    def active(self) -> bool:
        """True while the timer is still pending."""


class Envelope:
    """Base for wire wrappers that address ``msg`` to one part of the
    destination process (a replication group of a replica process).

    Every runtime names a message by what it carries: metrics and message
    spans read :func:`payload_of`, so
    an envelope never shows up as a message type of its own. Routing,
    delivery and byte accounting see the envelope itself.
    """

    __slots__ = ()
    msg: Any


def payload_of(msg: Any) -> Any:
    """The message an observer should name: ``msg`` itself, or what it
    carries when it is an :class:`Envelope`."""
    return msg.msg if isinstance(msg, Envelope) else msg


class Env(abc.ABC):
    """Everything a process may do to the outside world.

    Implementations: the simulation world (deterministic virtual time) and
    the threaded local transport (wall-clock time). Protocol code must only
    interact with the world through this interface — that is what makes the
    protocols testable under adversarial schedules.
    """

    @property
    @abc.abstractmethod
    def pid(self) -> ProcessId:
        """The identifier of the process this environment is bound to."""

    @property
    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (virtual or wall-clock)."""

    @abc.abstractmethod
    def send(self, dst: ProcessId, msg: Any) -> None:
        """Send ``msg`` to ``dst``. Never blocks; delivery is asynchronous."""

    @abc.abstractmethod
    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` after ``delay`` seconds unless cancelled.

        Timers are implicitly cancelled when the owning process crashes.
        """

    @property
    @abc.abstractmethod
    def rng(self) -> random.Random:
        """This process's private random stream (deterministic in the sim).

        This is the source of *intentional* service nondeterminism (e.g. the
        randomized resource broker); each replica gets an independent stream,
        so replicas genuinely disagree unless the protocol synchronizes them.
        """

    def idle_at(self) -> float:
        """The time by which this process will have handled every message
        it has already received: ``now`` when nothing waits. Only the
        simulation models a receive queue; a real runtime has read what
        its sockets held before it runs a handler."""
        return self.now

    def broadcast(self, dsts: Iterable[ProcessId], msg: Any) -> None:
        """Send ``msg`` to every destination (skipping self is the caller's
        choice — pass the peer list you mean)."""
        for dst in dsts:
            self.send(dst, msg)


class Process:
    """Base class for replicas and clients.

    Lifecycle: ``on_start`` once when the world starts (and never again),
    ``on_message`` per delivered message, ``on_crash`` / ``on_recover`` on
    fault injection. Everything not explicitly persisted is volatile and
    it is the subclass's job to reinitialize it in ``on_recover``.
    Replicas persist their Paxos state (promises, accepted proposals,
    checkpoints) through :class:`repro.storage.store.StableStore`, which
    models the durability boundary honestly (fsync, torn tails).
    """

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self.env: Env | None = None
        self.alive = True

    # ------------------------------------------------------------- lifecycle
    def bind(self, env: Env) -> None:
        """Attach the environment. Called by the world/transport at registration."""
        self.env = env

    def on_start(self) -> None:
        """Called once when the world starts running."""

    def on_message(self, src: ProcessId, msg: Any) -> None:
        """Handle a delivered message."""

    def on_crash(self) -> None:
        """Called when the process crashes (volatile state is about to be lost)."""

    def on_recover(self) -> None:
        """Called when the process recovers; rebuild volatile state from
        stable storage here."""

    # ----------------------------------------------------------- convenience
    @property
    def now(self) -> float:
        assert self.env is not None, f"{self.pid} is not bound to an environment"
        return self.env.now

    @property
    def rng(self) -> random.Random:
        assert self.env is not None
        return self.env.rng

    def send(self, dst: ProcessId, msg: Any) -> None:
        assert self.env is not None
        self.env.send(dst, msg)

    def broadcast(self, dsts: Iterable[ProcessId], msg: Any) -> None:
        assert self.env is not None
        self.env.broadcast(dsts, msg)

    def set_timer(self, delay: float, fn: Callable[..., None], *args: Any) -> TimerHandle:
        assert self.env is not None
        return self.env.set_timer(delay, fn, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "crashed"
        return f"<{type(self).__name__} {self.pid} ({status})>"
