"""Run one chaos trial: cluster + workload + nemesis schedule + invariants.

A trial builds a manual-elector cluster on the ``flat`` profile (constant
1 ms links, free CPUs — deterministic timing makes found schedules easy to
reason about), compiles a :class:`~repro.chaos.schedule.NemesisSchedule`
onto it, runs past the schedule's horizon plus a liveness grace period,
and then evaluates every invariant in :mod:`repro.chaos.invariants`.

Runtime protocol errors (e.g. :class:`ReplicaLog` detecting an instance
chosen twice with different values) abort the simulation early and are
reported as a ``runtime`` violation alongside the post-mortem invariant
sweep — the simulator's own tripwires and the observational checks
corroborate each other.

``MUTATIONS`` holds deliberate, test-only protocol bugs used to validate
that the invariant layer actually catches real safety violations (and that
the shrinker can minimize the schedules that expose them).
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import partial
from typing import Any

from repro.chaos.invariants import Violation, check_cluster
from repro.chaos.schedule import NemesisSchedule, assign_groups, generate_schedule
from repro.client.workload import Step, txn_steps
from repro.cluster.harness import Cluster, ClusterSpec
from repro.core.config import ReplicaConfig
from repro.core.group import ReplicaRole, ReplicationGroup
from repro.core.recovery import RecoveryCoordinator
from repro.core.requests import ClientRequest, ExecutedTable, RequestId, Verdict
from repro.core.state import StatePayload
from repro.core.tpaxos import TxnPhase
from repro.errors import ConfigError, ReproError, SimulationError, require_finite
from repro.net.profiles import get_profile
from repro.services.kvstore import KVStoreService
from repro.storage import FSYNC_MODES
from repro.types import RequestKind

#: The shared register every workload hammers; the linearizability and
#: convergence checks key off it.
REGISTER_KEY = "x"

PROTOCOLS = ("basic", "xpaxos", "tpaxos")


@dataclass(frozen=True)
class ChaosOptions:
    """Knobs for one chaos trial (shared across a seed sweep)."""

    protocol: str = "basic"
    n_replicas: int = 3
    n_clients: int = 2
    requests_per_client: int = 12
    horizon: float = 2.0
    #: Extra simulated seconds after the final heal for clients to finish.
    liveness_grace: float = 8.0
    intensity: float = 1.0
    allow_majority_loss: bool = False
    tracing: bool = False
    #: Name of a deliberate protocol bug from :data:`MUTATIONS`, or None.
    mutation: str | None = None
    profile: str = "flat"
    client_timeout: float = 0.05
    #: Tight idle-transaction expiry so zombie transactions (abandoned
    #: during partial view changes) are swept before the final invariant
    #: check; the post-run drain must outlast ``1.5 * txn_timeout``.
    txn_timeout: float = 0.5
    #: Stable-storage durability mode for the replicas (see
    #: :data:`repro.storage.FSYNC_MODES`). ``async`` keeps the legacy
    #: write-through device; ``sync`` models real fsync barriers.
    fsync: str = "async"
    #: Also sample storage nemeses (torn writes, lying fsyncs, disk
    #: stalls, record rot) into the schedule. Requires a real durability
    #: boundary — with ``fsync="async"`` every write is instantly durable
    #: and the nemeses would be inert no-ops.
    storage_faults: bool = False
    #: Replication groups per process (keyspace shards). ``>1`` adds
    #: spread-key traffic so every shard sees writes and rotates leader
    #: nemeses across groups; the invariants are checked per group.
    groups: int = 1

    def __post_init__(self) -> None:
        if self.groups < 1:
            raise ConfigError(f"need at least one group, got {self.groups}")
        require_finite(
            self, "horizon", "liveness_grace", "intensity", "client_timeout", "txn_timeout"
        )
        if self.intensity < 0:
            raise ConfigError(f"intensity must be >= 0, got {self.intensity}")
        if self.n_replicas < 2:
            raise ConfigError(
                f"nemesis schedules need at least two replicas, got {self.n_replicas}"
            )
        if self.horizon <= 0:
            raise ConfigError(f"horizon must be > 0, got {self.horizon}")
        if self.protocol not in PROTOCOLS:
            raise ConfigError(
                f"unknown protocol {self.protocol!r}; known: {PROTOCOLS}"
            )
        if self.mutation is not None and self.mutation not in MUTATIONS:
            raise ConfigError(
                f"unknown mutation {self.mutation!r}; known: {sorted(MUTATIONS)}"
            )
        if self.fsync not in FSYNC_MODES:
            raise ConfigError(
                f"unknown fsync mode {self.fsync!r}; known: {FSYNC_MODES}"
            )
        if self.storage_faults and self.fsync == "async":
            raise ConfigError(
                "storage_faults requires fsync='sync' "
                "(async is write-through: storage nemeses would be no-ops)"
            )
        if self.mutation == "skip-fsync" and self.fsync == "async":
            raise ConfigError(
                "the skip-fsync mutation requires fsync='sync' "
                "(with async there is no fsync to skip)"
            )

    @property
    def deadline(self) -> float:
        return self.horizon + self.liveness_grace


@dataclass
class ChaosResult:
    """Outcome of one trial. ``ok`` iff no invariant was violated."""

    seed: int
    options: ChaosOptions
    schedule: NemesisSchedule
    violations: list[Violation]
    sim_time: float
    completed_requests: int
    counters: dict[str, int] = field(default_factory=dict)
    #: Kept only when the caller asked for it (waterfall rendering, tests).
    cluster: Cluster | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict[str, Any]:
        """Deterministic, JSON-ready summary (no host wall-time anywhere)."""
        return {
            "seed": self.seed,
            "protocol": self.options.protocol,
            "ok": self.ok,
            "events": len(self.schedule),
            "sim_time": round(self.sim_time, 6),
            "completed_requests": self.completed_requests,
            "violations": [v.to_dict() for v in self.violations],
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
        }


# ------------------------------------------------------------------ workloads
def build_workload(options: ChaosOptions, seed: int) -> list[list[Step]]:
    """Seeded per-client step lists over the shared register.

    Writes carry globally unique values ``"<pid>:<i>"`` so the
    linearizability checker can tell every write apart. The basic and
    X-Paxos protocols mix reads and writes (reads take the X-Paxos path
    only when the cluster enables it); T-Paxos wraps ops in transactions.
    Seeded think-time gaps pace each client so its traffic spans the whole
    fault horizon — a fault injected at any point lands on live requests.

    On a sharded cluster every other write targets a per-client spread key
    instead of the shared register, so traffic lands on multiple groups
    (the linearizability checker reads only the register's history and is
    unaffected). The branch is guarded by ``groups > 1``: single-group
    workloads draw the exact same RNG sequence as before sharding existed.
    """
    mean_gap = options.horizon / max(options.requests_per_client, 1)
    all_steps: list[list[Step]] = []
    for index in range(options.n_clients):
        pid = f"c{index}"
        rng = random.Random(f"{seed}/workload/{pid}")

        def gap() -> float:
            return round(rng.uniform(0.2, 1.2) * mean_gap, 4)

        steps: list[Step] = []
        for i in range(options.requests_per_client):
            if options.protocol == "tpaxos" and rng.random() < 0.7:
                # Transactions work a per-client key: chaos probes protocol
                # faults, not 2PL lock contention (two clients hammering one
                # key just abort each other into a livelock).
                ops = [
                    ("put", f"t:{pid}", f"{pid}:{i}:a"),
                    ("put", f"t:{pid}", f"{pid}:{i}:b"),
                ]
                steps.append(dataclasses.replace(txn_steps(1, ops)[0], gap=gap()))
            elif rng.random() < 0.4:
                steps.append(
                    Step(
                        requests=((RequestKind.READ, ("get", REGISTER_KEY)),),
                        label="read", gap=gap(),
                    )
                )
            else:
                key = REGISTER_KEY
                if options.groups > 1 and i % 2:
                    key = f"s:{pid}:{i}"
                put = ("put", key, f"{pid}:{i}")
                steps.append(
                    Step(
                        requests=((RequestKind.WRITE, put),),
                        label="write", gap=gap(),
                    )
                )
        all_steps.append(steps)
    return all_steps


# ------------------------------------------------------------------ mutations
class _MinorityAcceptConfig(ReplicaConfig):
    """Deliberately broken quorum arithmetic: *one* accept "is" a majority.

    A leader commits after its own accept alone, so a partitioned minority
    leader happily chooses values a concurrent majority never saw —
    classic split-brain. Test-only; exists so the chaos suite can prove the
    invariant layer catches real agreement violations."""

    @property
    def majority(self) -> int:  # type: ignore[override]
        return 1


def _groups(cluster: Cluster) -> list[ReplicationGroup]:
    return [group for host in cluster.replicas.values() for group in host.groups.values()]


def _mutate_minority_accept(cluster: Cluster) -> None:
    fields = {
        f.name: getattr(cluster.config, f.name)
        for f in dataclasses.fields(ReplicaConfig)
    }
    broken = _MinorityAcceptConfig(**fields)
    for group in _groups(cluster):  # quorum math happens inside each group
        group.config = broken


def _mutate_skip_fsync(cluster: Cluster) -> None:
    """Ack client writes without waiting for (or ever issuing) an fsync.

    The classic "it's in the page cache, ship it" durability bug: every
    barrier completes immediately while the WAL records rot in the device
    cache. Any crash then strands acknowledged writes below a majority of
    durable copies — which is exactly what the ``acked_durability``
    invariant asserts cannot happen. Test-only."""
    for host in cluster.replicas.values():
        # The pump is what issues fsyncs (every group's store flushes
        # through it): neuter it there and short-circuit every barrier.
        host.pump.flush = lambda callback: callback()  # type: ignore[method-assign]
        host.pump._start_fsync = lambda: None  # type: ignore[method-assign]


class _StaleBlindTable(ExecutedTable):
    """An executed table whose verdict never says STALE."""

    def verdict(self, rid: RequestId) -> tuple[Verdict, Any]:
        verdict, cached = super().verdict(rid)
        return (Verdict.NEW, None) if verdict is Verdict.STALE else (verdict, cached)


def _propose_while_recovering(
    group: ReplicationGroup, on_request: Callable[[str, ClientRequest], None],
    src: str, request: ClientRequest,
) -> None:
    kind = request.kind
    if group.role is ReplicaRole.RECOVERING and (
        kind is RequestKind.WRITE
        or (kind is RequestKind.READ and not group.config.xpaxos_reads)
    ):
        group._submit_write(src, request)  # queued until the pipeline begins
    else:
        on_request(src, request)


def _mutate_propose_stale(cluster: Cluster) -> None:
    """A recovering leader queues client writes in its proposer, and the
    executed table admits a request its client has moved past.

    Two takeover paths that disagree: the queue drains once recovery has
    installed a snapshot whose table already covers some of those writes,
    and each is proposed again (``at_most_once``; sweep seed basic 210).
    Test-only."""
    for group in _groups(cluster):
        group.executed = _StaleBlindTable()  # restored in place, never replaced
        on_request = group._dispatch[ClientRequest]
        group._dispatch[ClientRequest] = partial(_propose_while_recovering, group, on_request)


def _merge_blind_to_known_tail(
    recovery: RecoveryCoordinator, merge: Callable[[Any], None], round_: Any
) -> None:
    # Step 3's back-fill then stops at max(merged), as it did before P2c
    # was enforced; nothing else in the merge asks the log this.
    log = recovery.replica.log
    log.max_instance_chosen = lambda: 0  # type: ignore[method-assign]
    try:
        merge(round_)
    finally:
        del log.max_instance_chosen


def _mutate_recovery_skips_known_tail(cluster: Cluster) -> None:
    """Recovery back-fills the instances it knows are chosen only up to the
    highest instance a Promise reported.

    A new leader holding 16 chosen but missing 15 prepares gaps=(15,)
    from=17, re-proposes 15 alone and starts its pipeline on 16: a second
    value chosen there (``runtime`` ProtocolError, P2c; sweep seed basic
    1303). Test-only."""
    for group in _groups(cluster):
        recovery = group.recovery
        recovery._merge_and_accept = partial(  # type: ignore[method-assign]
            _merge_blind_to_known_tail, recovery, recovery._merge_and_accept
        )


def _payload_leaking_active_txns(
    group: ReplicationGroup, payload: Callable[[Any], StatePayload], results: Any,
) -> StatePayload:
    service = group.service
    own = service.snapshot()
    for txn in group.txns.active.values():
        if txn.phase is TxnPhase.ACTIVE:  # a committing one's are already in
            txn.apply_to(service)
    try:
        return payload(results)
    finally:
        service.restore(own)


def _mutate_full_payload_leaks_txn(cluster: Cluster) -> None:
    """The leader builds each FULL payload, a plain write's or a commit's,
    with every other ACTIVE transaction's deltas applied; its own copy
    stays without them.

    Backups install effects that may still abort, as they did when open
    transactions changed the leader's copy itself (``state_convergence``;
    bug C, sweep seed tpaxos ``--groups 2`` 7). Test-only."""
    for group in _groups(cluster):
        group.payload = partial(  # type: ignore[method-assign]
            _payload_leaking_active_txns, group, group.payload
        )


#: name -> callable(cluster) applied after construction, before start.
MUTATIONS: Mapping[str, Callable[[Cluster], None]] = {
    "minority-accept": _mutate_minority_accept,
    "skip-fsync": _mutate_skip_fsync,
    "propose-stale": _mutate_propose_stale,
    "recovery-skips-known-tail": _mutate_recovery_skips_known_tail,
    "full-payload-leaks-txn": _mutate_full_payload_leaks_txn,
}


# -------------------------------------------------------------------- running
def build_cluster(options: ChaosOptions, seed: int) -> Cluster:
    """Construct (but do not start) the cluster for one trial."""
    spec = ClusterSpec(
        profile=get_profile(options.profile),
        n_replicas=options.n_replicas,
        seed=seed,
        xpaxos_reads=options.protocol == "xpaxos",
        client_timeout=options.client_timeout,
        txn_timeout=options.txn_timeout,
        retry_aborted=options.protocol == "tpaxos",
        elector="manual",
        tracing=options.tracing,
        connection_scaling=False,
        fsync=options.fsync,
        groups=options.groups,
        # Fold committed rids into checkpoints/state transfer so the
        # acked-durability check can account for compacted WAL prefixes.
        # Only wired up when the durability boundary is real: with async
        # fsync the trial stays byte-identical to pre-storage chaos runs.
        track_commits=options.fsync != "async",
    )
    cluster = Cluster(
        spec, build_workload(options, seed), service_factory=KVStoreService
    )
    if options.mutation is not None:
        MUTATIONS[options.mutation](cluster)
    return cluster


def run_with_schedule(
    schedule: NemesisSchedule,
    options: ChaosOptions,
    keep_cluster: bool = False,
) -> ChaosResult:
    """Execute one trial under an explicit (possibly shrunk) schedule."""
    cluster = build_cluster(options, schedule.seed)
    cluster.start()
    schedule.compile_onto(cluster)

    runtime_violations: list[Violation] = []
    try:
        cluster.run(max_time=options.deadline)
        # Long enough for Chosen broadcasts to land everywhere AND for the
        # idle-transaction sweep (worst case 1.5 * txn_timeout) to clear
        # zombies before the convergence check.
        cluster.drain(grace=max(0.5, 1.5 * options.txn_timeout + 0.2))
    except SimulationError:
        # Clients still unfinished at the deadline; the liveness check
        # below turns this into a proper violation with per-client detail.
        pass
    except ReproError as exc:
        # A protocol tripwire fired mid-run (e.g. conflicting chosen
        # values). Record it and post-mortem the frozen state.
        runtime_violations.append(
            Violation(
                "runtime",
                f"{type(exc).__name__}: {exc}",
                data={"exception": type(exc).__name__},
            )
        )

    violations = runtime_violations + check_cluster(
        cluster,
        register_key=REGISTER_KEY,
        register_initial=None,
        liveness_deadline=options.deadline,
    )
    # A runtime abort freezes clients mid-flight; the interesting signal is
    # the tripwire itself, not the liveness fallout it causes.
    if runtime_violations:
        violations = [v for v in violations if v.invariant != "liveness"]

    completed = sum(c.completed_requests for c in cluster.clients)
    counters = {
        name: value
        for name, value in cluster.metrics.counters().items()
        if name.startswith(("fault.", "client.retransmit", "net.drop", "net.dup"))
        or ".storage." in name
    }
    return ChaosResult(
        seed=schedule.seed,
        options=options,
        schedule=schedule,
        violations=violations,
        sim_time=cluster.kernel.now,
        completed_requests=completed,
        counters=counters,
        cluster=cluster if keep_cluster else None,
    )


def run_chaos(
    seed: int, options: ChaosOptions, keep_cluster: bool = False
) -> ChaosResult:
    """Generate the seed's nemesis schedule and run the trial.

    :func:`~repro.chaos.schedule.assign_groups` then rotates leader
    switches across the replication groups (a no-op with one group) — the
    generated timeline itself is untouched, so a sharded sweep stays
    event-for-event comparable to the single-group sweep of the same seed.
    """
    cluster_pids = tuple(f"r{i}" for i in range(options.n_replicas))
    schedule = generate_schedule(
        seed,
        cluster_pids,
        horizon=options.horizon,
        intensity=options.intensity,
        allow_majority_loss=options.allow_majority_loss,
        storage=options.storage_faults,
    )
    schedule = assign_groups(schedule, options.groups)
    return run_with_schedule(schedule, options, keep_cluster=keep_cluster)
