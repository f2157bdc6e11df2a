"""Randomized nemesis schedules: seeded fault timelines.

A :class:`NemesisSchedule` is a flat, serializable list of fault events
sampled from a single seed. The generator walks virtual time forward,
keeping a model of which replicas are down and how the replica set is
partitioned, so that the sampled timeline is *coherent*: it never switches
leadership to a crashed replica, it pairs every crash with a recovery and
every partition with a heal, and (unless ``allow_majority_loss``) it keeps
a majority of replicas alive at all times. At the horizon it emits a final
heal + recover-all + leader-switch so that liveness-after-heal is a fair
check: once a majority is stable, clients must finish.

Schedules compile onto the scripted :class:`repro.cluster.faults.
FaultSchedule` API, so a generated (or shrunk) schedule can always be
replayed as an ordinary scripted scenario — :meth:`NemesisSchedule.
to_script` emits exactly that code.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace
from typing import Any, TYPE_CHECKING

from repro.errors import ConfigError
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.faults import FaultSchedule
    from repro.cluster.harness import Cluster

#: The one place that knows how an event becomes a :class:`FaultSchedule`
#: call: ``kind -> (method, event field passed positionally, {keyword:
#: event field})``; ``at=event.at`` is always passed. :meth:`NemesisEvent.
#: call` reads it, and compiling, scripting and describing read that.
FAULT_CALLS: dict[str, tuple[str, str | None, dict[str, str]]] = {
    "crash": ("crash", "pids", {}),
    "recover": ("recover", "pids", {}),
    "partition": ("partition", "groups", {}),
    "heal": ("heal", None, {}),
    "leader": ("switch_leader", "pids", {"pids": "scope", "group": "rgroup"}),
    "loss_burst": ("loss_burst", "value", {"duration": "duration"}),
    "dup_burst": ("dup_burst", "value", {"duration": "duration"}),
    "latency_spike": ("latency_spike", "value", {"duration": "duration"}),
    "torn_write": ("torn_write", "pids", {}),
    "lost_fsync": ("lost_fsync", "pids", {"duration": "duration"}),
    "disk_stall": ("disk_stall", "pids", {"duration": "duration", "extra": "value"}),
    "corrupt_record": ("corrupt_record", "pids", {"fraction": "value"}),
}

#: Event kinds a schedule may contain. The order is the generator's
#: tie-break between events at the same instant, so rows are only appended.
EVENT_KINDS = tuple(FAULT_CALLS)

#: The storage-nemesis subset (only sampled with ``storage=True``).
STORAGE_KINDS = ("torn_write", "lost_fsync", "disk_stall", "corrupt_record")


@dataclass(frozen=True, slots=True)
class NemesisEvent:
    """One fault event at an absolute simulated time.

    * ``crash`` / ``recover`` — ``pids`` holds the single target.
    * ``partition`` — ``groups`` holds the replica grouping; ``heal`` clears.
    * ``leader`` — ``pids`` holds the new leader (manual elector flip);
      a non-empty ``scope`` limits the view change to those replicas
      (the partitioned-away rest keeps its old view). On a sharded
      cluster ``rgroup`` names the replication group whose leadership
      moves (``None`` means group 0, the only group when unsharded).
    * ``loss_burst`` / ``dup_burst`` — ``value`` is the probability,
      ``duration`` the burst length.
    * ``latency_spike`` — ``value`` is the extra one-way latency in seconds.
    * ``torn_write`` — ``pids`` holds the target; arms one torn write on
      its stable-storage device (fires at the next crash).
    * ``lost_fsync`` — ``pids`` + ``duration``: the device acknowledges
      fsyncs without persisting for the window.
    * ``disk_stall`` — ``pids`` + ``duration``; ``value`` is the extra
      seconds added to each fsync started in the window.
    * ``corrupt_record`` — ``pids``; ``value`` is the log fraction whose
      durable record gets a flipped bit.
    """

    at: float
    kind: str
    pids: tuple[ProcessId, ...] = ()
    groups: tuple[tuple[ProcessId, ...], ...] = ()
    value: float = 0.0
    duration: float = 0.0
    scope: tuple[ProcessId, ...] = ()
    #: Target replication group for ``leader`` events on sharded clusters.
    rgroup: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ConfigError(f"unknown nemesis event kind {self.kind!r}")
        positional = FAULT_CALLS[self.kind][1]
        if positional is not None and getattr(self, positional) == ():
            raise ConfigError(
                f"nemesis event {self.kind!r} at t={self.at} needs {positional!r}"
            )

    def _argument(self, name: str) -> Any:
        """Field ``name`` in the shape :class:`FaultSchedule` takes it."""
        value = getattr(self, name)
        if name == "pids":
            return value[0]  # every fault that takes a pid has one target
        if isinstance(value, tuple):
            return [list(v) if isinstance(v, tuple) else v for v in value]
        return value

    def call(self) -> tuple[str, tuple[Any, ...], dict[str, Any]]:
        """The :class:`FaultSchedule` call this event stands for, as
        ``(method name, positional args, keyword args)``. An empty ``scope``
        and an unset ``rgroup`` are left to the method's defaults."""
        method, positional, keywords = FAULT_CALLS[self.kind]
        args = () if positional is None else (self._argument(positional),)
        kwargs: dict[str, Any] = {"at": self.at}
        for keyword, name in keywords.items():
            if getattr(self, name) not in ((), None):
                kwargs[keyword] = self._argument(name)
        return method, args, kwargs

    def describe(self) -> str:
        """One line of report text (nothing parses it): time, kind, then
        the arguments of :meth:`call`."""
        _method, args, kwargs = self.call()
        words = [f"{self.at:.4f}s", self.kind, *map(str, args)]
        words += [f"{key}={value}" for key, value in kwargs.items() if key != "at"]
        return " ".join(words)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"at": self.at, "kind": self.kind}
        if self.pids:
            out["pids"] = list(self.pids)
        if self.groups:
            out["groups"] = [list(g) for g in self.groups]
        if self.value:
            out["value"] = self.value
        if self.duration:
            out["duration"] = self.duration
        if self.scope:
            out["scope"] = list(self.scope)
        if self.rgroup is not None:
            out["rgroup"] = self.rgroup
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NemesisEvent":
        rgroup = data.get("rgroup")
        return cls(
            at=float(data["at"]),
            kind=str(data["kind"]),
            pids=tuple(data.get("pids", ())),
            groups=tuple(tuple(g) for g in data.get("groups", ())),
            value=float(data.get("value", 0.0)),
            duration=float(data.get("duration", 0.0)),
            scope=tuple(data.get("scope", ())),
            rgroup=None if rgroup is None else int(rgroup),
        )


@dataclass(frozen=True)
class NemesisSchedule:
    """A seeded fault timeline, ready to compile onto a cluster."""

    seed: int
    horizon: float
    events: tuple[NemesisEvent, ...]

    def __len__(self) -> int:
        return len(self.events)

    # -------------------------------------------------------------- compiling
    def compile_onto(self, cluster: "Cluster") -> "FaultSchedule":
        """Apply every event to ``cluster`` via its :class:`FaultSchedule`."""
        from repro.cluster.faults import FaultSchedule

        fs = FaultSchedule(cluster)
        for event in self.events:
            method, args, kwargs = event.call()
            getattr(fs, method)(*args, **kwargs)
        return fs

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "horizon": self.horizon,
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NemesisSchedule":
        return cls(
            seed=int(data["seed"]),
            horizon=float(data["horizon"]),
            events=tuple(NemesisEvent.from_dict(e) for e in data["events"]),
        )

    def with_events(self, events: Iterable[NemesisEvent]) -> "NemesisSchedule":
        return replace(self, events=tuple(events))

    def describe(self) -> str:
        lines = [f"nemesis schedule (seed={self.seed}, horizon={self.horizon:g}s, "
                 f"{len(self.events)} events)"]
        lines.extend(f"  {event.describe()}" for event in self.events)
        return "\n".join(lines)

    def to_script(self) -> str:
        """Emit this schedule as a runnable scripted scenario (the exact
        :class:`FaultSchedule` calls a hand-written repro would make)."""
        lines = [
            "# Scripted repro of a nemesis schedule "
            f"(seed={self.seed}, horizon={self.horizon:g}s).",
            "# Requires a Cluster built with elector='manual'.",
            "from repro.cluster.faults import FaultSchedule",
            "",
            "schedule = FaultSchedule(cluster)",
        ]
        for event in self.events:
            method, args, kwargs = event.call()
            rendered = [repr(arg) for arg in args]
            rendered += [f"{key}={value!r}" for key, value in kwargs.items()]
            lines.append(f"schedule.{method}({', '.join(rendered)})")
        return "\n".join(lines)


# ------------------------------------------------------------------ sharding
def assign_groups(schedule: NemesisSchedule, n_groups: int) -> NemesisSchedule:
    """Retarget a generated schedule's leader switches at replication groups.

    Crashes, partitions and storage faults hit whole processes and need no
    retargeting — one power cut takes out a process's replica of *every*
    group. Leader switches are the one per-group fault: each mid-run switch
    is assigned a group round-robin (so every shard's leadership gets
    exercised, including single-group-leader crashes while the other groups
    keep serving), and the final stabilization switch is fanned out into
    one switch per group so that after the last heal *every* shard has an
    alive leader — otherwise the liveness check could starve a group whose
    round-robin turn never came.
    """
    if n_groups <= 1:
        return schedule
    events = list(schedule.events)
    leader_indexes = [i for i, e in enumerate(events) if e.kind == "leader"]
    if not leader_indexes:
        return schedule
    for turn, index in enumerate(leader_indexes[:-1]):
        events[index] = replace(events[index], rgroup=turn % n_groups)
    final = leader_indexes[-1]
    events[final : final + 1] = [
        replace(events[final], rgroup=group) for group in range(n_groups)
    ]
    return schedule.with_events(events)


# ---------------------------------------------------------------- generation
@dataclass
class _GenState:
    """The generator's model of the cluster while sampling events."""

    replicas: tuple[ProcessId, ...]
    down: set[ProcessId] = field(default_factory=set)
    pending_recover: list[tuple[float, ProcessId]] = field(default_factory=list)
    groups: tuple[tuple[ProcessId, ...], ...] | None = None
    heal_at: float | None = None
    leader: ProcessId = ""
    burst_until: float = 0.0
    #: Replicas whose storage the schedule destroys (corrupt + restart →
    #: fail-stop). Permanently down: never recovered, never re-elected.
    poisoned: set[ProcessId] = field(default_factory=set)
    #: pid -> end of its lying-fsync window. Crashing inside (or right
    #: after) the window may poison the device, which the generator's
    #: alive/down model cannot predict — so crashes steer clear of it.
    lie_until: dict[ProcessId, float] = field(default_factory=dict)

    def advance_to(self, t: float) -> None:
        """Apply planned recoveries/heals that occur before ``t``."""
        keep = []
        for at, pid in self.pending_recover:
            if at <= t:
                self.down.discard(pid)
            else:
                keep.append((at, pid))
        self.pending_recover = keep
        if self.heal_at is not None and self.heal_at <= t:
            self.groups = None
            self.heal_at = None

    def component_of(self, pid: ProcessId) -> tuple[ProcessId, ...]:
        if self.groups is None:
            return self.replicas
        for group in self.groups:
            if pid in group:
                return group
        return self.replicas

    def majority_component(self) -> tuple[ProcessId, ...] | None:
        """Alive pids of a component holding > n/2 *alive* members, if any."""
        need = len(self.replicas) // 2 + 1
        sides = self.groups if self.groups is not None else (self.replicas,)
        for group in sides:
            alive = tuple(p for p in group if p not in self.down)
            if len(alive) >= need:
                return alive
        return None

    def leader_healthy(self) -> bool:
        if self.leader in self.down:
            return False
        majority = self.majority_component()
        return majority is not None and self.leader in majority


def generate_schedule(
    seed: int,
    replicas: Iterable[ProcessId],
    horizon: float = 2.0,
    intensity: float = 1.0,
    allow_majority_loss: bool = False,
    storage: bool = False,
) -> NemesisSchedule:
    """Sample a coherent fault timeline for ``replicas`` from one seed.

    ``intensity`` scales the expected event rate (about two fault injections
    per simulated second at 1.0). ``allow_majority_loss`` permits crash
    bursts that take down a majority — safety must still hold (nothing can
    be committed without a majority), and the final recover-all restores
    liveness.

    ``storage=True`` additionally samples stable-storage nemeses (torn
    writes, lying fsyncs, disk stalls, record rot), carved out of the
    network-burst probability slice so that ``storage=False`` draws an
    identical event sequence to schedules generated before the knob
    existed. A corrupted replica is paired with a crash + restart so its
    replay hits the bad CRC and fail-stops; the generator treats it as
    permanently down (it counts against the crash budget for the rest of
    the run and is never recovered or re-elected).
    """
    pids = tuple(replicas)
    if len(pids) < 2:
        raise ConfigError("nemesis schedules need at least two replicas")
    if not 0 < horizon < math.inf:  # an infinite one never stops sampling
        raise ConfigError(f"horizon must be finite and > 0, got {horizon}")
    rng = random.Random(f"{seed}/nemesis")
    state = _GenState(replicas=pids, leader=pids[0])
    events: list[NemesisEvent] = []
    used_crash: set[tuple[ProcessId, float]] = set()
    used_recover: set[tuple[ProcessId, float]] = set()
    max_faults = (len(pids) - 1) // 2

    def emit(event: NemesisEvent) -> None:
        events.append(event)

    def switch_scope(target: ProcessId) -> tuple[ProcessId, ...]:
        """Replicas that can observe a view change to ``target``: during a
        partition, only ``target``'s own component (a cut-off minority keeps
        its stale view — the split-brain shape worth probing)."""
        if state.groups is None:
            return ()
        return state.component_of(target)

    def pick_new_leader(at: float) -> None:
        """If the designated leader is dead or minority-side, flip to an
        alive majority-side replica so progress can resume."""
        majority = state.majority_component()
        if majority is None:
            return
        if state.leader in majority and state.leader not in state.down:
            return
        target = majority[rng.randrange(len(majority))]
        state.leader = target
        emit(
            NemesisEvent(
                at=round(at, 4), kind="leader", pids=(target,),
                scope=switch_scope(target),
            )
        )

    def crash_and_restart(pid: ProcessId, delay: float, rotted: bool = False) -> None:
        """Crash ``pid`` at ``t + delay``, emit its restart, and re-pick the
        leader if it was the victim. A ``rotted`` victim restarts only to
        fail-stop on its bad record: it stays down and books no recovery."""
        crash_at = round(t + delay, 4)
        used_crash.add((pid, crash_at))
        state.down.add(pid)
        emit(NemesisEvent(at=crash_at, kind="crash", pids=(pid,)))
        if rotted:
            state.poisoned.add(pid)
            back = round(min(t + 0.05, horizon), 4)
        else:
            downtime = 0.1 + rng.random() * min(1.0, horizon / 2)
            back = round(min(t + delay + downtime, horizon), 4)
            state.pending_recover.append((back, pid))
            used_recover.add((pid, back))
        emit(NemesisEvent(at=back, kind="recover", pids=(pid,)))
        if pid == state.leader:
            # Parenthesized so a delayed crash re-picks at exactly t + 0.02,
            # the float every stored schedule and digest was drawn with.
            pick_new_leader(t + (delay + 0.01))

    t = 0.02 + rng.random() * 0.05
    mean_gap = 0.5 / max(intensity, 1e-6)
    while t < horizon:
        state.advance_to(t)
        at = round(t, 4)
        choice = rng.random()
        if choice < 0.30:
            # Crash a replica (+ recovery later). Skip pids inside (or just
            # past) a lying-fsync window: such a crash may poison the device
            # and the generator's alive/down model could no longer trust the
            # planned recovery.
            candidates = [
                p for p in pids
                if p not in state.down
                and t > state.lie_until.get(p, -1.0) + 0.05
            ]
            over_budget = len(state.down) >= max_faults
            if candidates and (not over_budget or allow_majority_loss):
                pid = candidates[rng.randrange(len(candidates))]
                if (pid, at) not in used_crash:
                    crash_and_restart(pid, 0.0)
        elif choice < 0.55:
            # Partition the replica set in two (clients stay connected).
            # Half the time, deliberately exile the current leader into the
            # smaller side: that is the split-brain shape where a stale
            # leader keeps hearing clients while the majority elects anew.
            if state.groups is None:
                shuffled = list(pids)
                rng.shuffle(shuffled)
                if rng.random() < 0.5 and state.leader in shuffled:
                    shuffled.remove(state.leader)
                    shuffled.insert(0, state.leader)
                    cut = 1 + rng.randrange(max(1, (len(pids) - 1) // 2))
                else:
                    cut = rng.randrange(1, len(pids))
                groups = (tuple(shuffled[:cut]), tuple(shuffled[cut:]))
                state.groups = groups
                emit(NemesisEvent(at=at, kind="partition", groups=groups))
                hold = 0.15 + rng.random() * min(1.0, horizon / 2)
                heal = round(min(t + hold, horizon), 4)
                state.heal_at = heal
                emit(NemesisEvent(at=heal, kind="heal"))
                if not state.leader_healthy():
                    pick_new_leader(t + 0.01)
        elif choice < 0.65:
            # Gratuitous leader switch inside the majority component.
            majority = state.majority_component()
            if majority:
                target = majority[rng.randrange(len(majority))]
                if target != state.leader:
                    state.leader = target
                    emit(
                        NemesisEvent(
                            at=at, kind="leader", pids=(target,),
                            scope=switch_scope(target),
                        )
                    )
        elif storage and choice < 0.80:
            # Stable-storage nemesis — carved out of the burst slice, so a
            # storage=False run draws the exact same rng sequence as before
            # the knob existed (this branch consumes rng only when taken).
            roll = rng.random()
            candidates = [
                p for p in pids if p not in state.down
            ]
            if candidates:
                pid = candidates[rng.randrange(len(candidates))]
                if roll < 0.30:
                    # Arm a torn write and crash so the tear actually
                    # lands; replay truncates the torn tail and the
                    # replica rejoins as usual.
                    crash_at = round(t + 0.01, 4)
                    clean = t > state.lie_until.get(pid, -1.0) + 0.05
                    over_budget = len(state.down) >= max_faults
                    if (
                        clean
                        and (not over_budget or allow_majority_loss)
                        and (pid, crash_at) not in used_crash
                        and crash_at < horizon
                    ):
                        emit(NemesisEvent(at=at, kind="torn_write", pids=(pid,)))
                        crash_and_restart(pid, 0.01)
                elif roll < 0.55:
                    # Lying-fsync window: acks without persistence. Benign
                    # on its own; the crash branches steer clear of the
                    # window so the hazard stays latent by construction.
                    duration = round(0.05 + rng.random() * 0.25, 4)
                    state.lie_until[pid] = t + duration
                    emit(
                        NemesisEvent(
                            at=at, kind="lost_fsync", pids=(pid,),
                            duration=duration,
                        )
                    )
                elif roll < 0.80:
                    # Slow disk: every fsync started in the window takes
                    # `extra` longer. Pure latency, never lost data.
                    duration = round(0.1 + rng.random() * 0.4, 4)
                    extra = round((1.0 + rng.random() * 9.0) * 1e-3, 6)
                    emit(
                        NemesisEvent(
                            at=at, kind="disk_stall", pids=(pid,),
                            value=extra, duration=duration,
                        )
                    )
                else:
                    # Rot a mid-log durable record and restart the victim:
                    # replay hits the bad CRC and fail-stops, so the
                    # replica is permanently gone — it burns crash budget
                    # for the rest of the run.
                    crash_at = round(t + 0.01, 4)
                    over_budget = len(state.down) >= max_faults
                    if (
                        not over_budget
                        and len(state.poisoned) < max_faults
                        and (pid, crash_at) not in used_crash
                        and crash_at < horizon
                    ):
                        fraction = round(rng.random() * 0.8, 3)
                        emit(
                            NemesisEvent(
                                at=at, kind="corrupt_record", pids=(pid,),
                                value=fraction,
                            )
                        )
                        crash_and_restart(pid, 0.01, rotted=True)
        else:
            # Network disturbance burst (loss / duplication / latency).
            if t >= state.burst_until:
                burst_kind = ("loss_burst", "dup_burst", "latency_spike")[
                    rng.randrange(3)
                ]
                duration = round(0.1 + rng.random() * 0.4, 4)
                end = min(t + duration, horizon)
                duration = round(end - t, 4)
                if duration > 0:
                    if burst_kind == "loss_burst":
                        value = round(0.05 + rng.random() * 0.35, 3)
                    elif burst_kind == "dup_burst":
                        value = round(0.1 + rng.random() * 0.5, 3)
                    else:
                        value = round((0.5 + rng.random() * 4.5) * 1e-3, 6)
                    state.burst_until = t + duration
                    emit(
                        NemesisEvent(
                            at=at, kind=burst_kind, value=value, duration=duration
                        )
                    )
        t += rng.expovariate(1.0 / mean_gap) if mean_gap > 0 else horizon

    # Final stabilization: heal, recover everyone, settle leadership. After
    # this point a majority is stable and the liveness invariant applies.
    # Poisoned replicas stay down (their storage is gone; restarting them
    # would only fail-stop again), and pids already scheduled to recover at
    # exactly the horizon are not recovered twice.
    end = round(horizon, 4)
    emit(NemesisEvent(at=end, kind="heal"))
    for pid in pids:
        if pid in state.poisoned or (pid, end) in used_recover:
            continue
        emit(NemesisEvent(at=end, kind="recover", pids=(pid,)))
    state.down = set(state.poisoned)
    state.groups = None
    if state.leader and state.leader not in state.poisoned:
        final_leader = state.leader
    else:
        final_leader = next(p for p in pids if p not in state.poisoned)
    emit(NemesisEvent(at=round(end + 0.01, 4), kind="leader", pids=(final_leader,)))

    events.sort(key=lambda e: (e.at, EVENT_KINDS.index(e.kind)))
    return NemesisSchedule(seed=seed, horizon=horizon, events=tuple(events))
