"""Build and run one simulated deployment.

Reproduces the §4 experimental procedure: replicas and clients are placed
according to a :class:`repro.net.profiles.NetworkProfile`; after the world
starts, a starter co-located with the leader broadcasts the
:class:`repro.core.messages.StartSignal` "to all the clients simultaneously
to ensure that the client processes start at (roughly) the same time";
each client then works through its closed-loop step list.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.client.client import Client
from repro.client.workload import Step
from repro.core.config import ReplicaConfig
from repro.core.messages import StartSignal
from repro.core.group import ReplicationGroup
from repro.election.base import LeaderElector
from repro.election.omega import OmegaElector
from repro.election.static import ManualElectorGroup, StaticElector
from repro.errors import ConfigError, SimulationError
from repro.net.network import SimNetwork
from repro.net.profiles import NetworkProfile
from repro.obs.handle import Obs
from repro.obs.prof.profiler import NULL_PROFILER, NullProfiler, SimProfiler
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracing import NULL_TRACER, NullTracer, Tracer
from repro.services.base import Service
from repro.services.noop import NoopService
from repro.shard.host import GroupHost
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.world import World
from repro.storage import FSYNC_MODES
from repro.types import ProcessId, StateTransferMode

#: Virtual time at which the starter broadcasts the start signal (seconds).
START_AT = 0.001
#: Virtual-time period of the profiler's counter track (seconds).
PROFILE_SAMPLE_INTERVAL = 0.01


class Starter(Process):
    """Broadcasts the start signal at a fixed time (stands next to the
    leader, so signal skew equals the paper's leader-to-client latency).

    The signal is re-broadcast a bounded number of times so lossy-network
    experiments still start; clients ignore duplicates.
    """

    def __init__(
        self,
        pid: ProcessId,
        clients: Sequence[ProcessId],
        at: float,
        repeat_interval: float = 0.2,
        repeats: int = 100,
    ) -> None:
        super().__init__(pid)
        self.clients = tuple(clients)
        self.at = at
        self.repeat_interval = repeat_interval
        self.repeats = repeats

    def on_start(self) -> None:
        self.set_timer(self.at, self._fire, self.repeats)

    def _fire(self, remaining: int) -> None:
        self.broadcast(self.clients, StartSignal())
        if remaining > 0:
            self.set_timer(self.repeat_interval, self._fire, remaining - 1)


@dataclass(frozen=True)
class ClusterSpec:
    """Everything needed to build one deployment."""

    profile: NetworkProfile
    n_replicas: int = 3
    seed: int = 0
    #: Replication groups (shards) per process. Every replica process is a
    #: :class:`~repro.shard.host.GroupHost` hosting one replica of each
    #: group on a shared storage pump, with group ``g``'s initial leader at
    #: replica ``g % n_replicas``; 1 is the paper's unsharded service.
    groups: int = 1
    state_mode: StateTransferMode = StateTransferMode.FULL
    xpaxos_reads: bool = True
    execute_time: float = 0.0
    checkpoint_interval: int = 100
    accept_retry: float = 0.5
    prepare_retry: float = 0.1
    client_timeout: float = 1.0
    #: Client retransmission backoff (see :class:`repro.client.client.Client`):
    #: multiplier per unanswered retransmit, cap on the grown timeout
    #: (``None`` = 10x the base timeout), and seeded jitter fraction.
    client_backoff: float = 2.0
    client_timeout_cap: float | None = None
    client_jitter: float = 0.1
    retry_aborted: bool = False
    max_abort_retries: int = 10
    #: Idle-transaction expiry (see :class:`repro.core.config.ReplicaConfig`).
    txn_timeout: float = 2.0
    #: "static" (benchmark default), "manual" (fault tests), "omega".
    elector: str = "static"
    omega_heartbeat: float = 0.05
    omega_timeout: float = 0.25
    #: Scale per-message CPU with the client count (Fig. 6's contention).
    connection_scaling: bool = True
    #: Causal request tracing (:mod:`repro.obs.tracing`): one span tree per
    #: client request, from submit to reply. Passive like metrics — a traced
    #: run is byte-identical to a bare one (tests/integration/test_tracing.py).
    tracing: bool = False
    #: Record counters/histograms into a :class:`repro.obs.registry.MetricsRegistry`.
    #: On by default so every harness run (and benchmark) gets per-message
    #: accounting for free; recording is passive and cannot perturb the
    #: schedule (see tests/integration/test_obs_determinism.py).
    metrics: bool = True
    #: Also account modelled wire bytes per message type
    #: (``repro.transport.codec.wire_size``: a walk of the message, nothing
    #: is serialized).
    measure_bytes: bool = True
    #: Sim-profiler (:mod:`repro.obs.prof`): folded-stack sim-CPU
    #: attribution per actor and message type. Passive like the
    #: tracer — a profiled run is byte-identical to a bare one
    #: (tests/integration/test_profiler.py) — and zero-overhead when off.
    profiling: bool = False
    #: Stable-storage durability mode (:mod:`repro.storage`): ``async``
    #: (legacy zero-latency durability, byte-identical to pre-storage
    #: runs) or ``sync``.
    fsync: str = "async"
    #: Modeled fsync device latency (seconds).
    fsync_latency: float = 5e-4
    #: Maintain the chosen-rid fold in checkpoints (the acked-durability
    #: invariant needs it; off by default — it grows with the run).
    track_commits: bool = False

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ConfigError("need at least one replica")
        if self.groups < 1:
            raise ConfigError("need at least one replication group")
        if self.elector not in ("static", "manual", "omega"):
            raise ConfigError(f"unknown elector kind {self.elector!r}")
        if self.fsync not in FSYNC_MODES:
            raise ConfigError(f"unknown fsync mode {self.fsync!r}")
        # A zero period would stop simulated time; a negative one goes back.
        periods = ["client_timeout", "accept_retry", "prepare_retry", "omega_heartbeat"]
        if self.client_timeout_cap is not None:
            periods.append("client_timeout_cap")
        for name in periods:
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")
        # A backoff below 1 shrinks the retransmit period toward zero.
        for name, floor in (("client_backoff", 1), ("client_jitter", 0)):
            if not getattr(self, name) >= floor:
                raise ConfigError(f"{name} must be >= {floor}, got {getattr(self, name)}")
        if self.omega_timeout <= self.omega_heartbeat:
            raise ConfigError(
                f"omega_timeout must exceed omega_heartbeat, got {self.omega_timeout}"
                f" <= {self.omega_heartbeat}"
            )


class Cluster:
    """One wired-up deployment, ready to run."""

    def __init__(
        self,
        spec: ClusterSpec,
        client_steps: Sequence[Sequence[Step]],
        service_factory: Callable[[], Service] = NoopService,
    ) -> None:
        self.spec = spec
        n_clients = len(client_steps)
        if n_clients < 1:
            raise ConfigError("need at least one client (give it an empty step list)")

        self.replica_pids = tuple(f"r{i}" for i in range(spec.n_replicas))
        self.client_pids = tuple(f"c{i}" for i in range(n_clients))
        starter_pid = "starter"

        profile = spec.profile
        topology = profile.build_topology(self.replica_pids, self.client_pids)
        # The starter stands next to the leader (the paper's leader sends
        # the start signal).
        topology.place(starter_pid, topology.site_of(self.replica_pids[0]))

        # The run's observers are built first and travel as one handle:
        # every component below gets ``obs`` at construction and nothing
        # is set on it afterwards. The clocks read ``self.kernel`` lazily.
        self.metrics: MetricsRegistry = MetricsRegistry() if spec.metrics else NULL_REGISTRY
        self.tracer: Tracer | NullTracer = (
            Tracer(clock=lambda: self.kernel.now) if spec.tracing else NULL_TRACER
        )
        self.profiler: SimProfiler | NullProfiler = (
            SimProfiler(sample_interval=PROFILE_SAMPLE_INTERVAL)
            if spec.profiling
            else NULL_PROFILER
        )
        if self.profiler.enabled:
            for pid in self.replica_pids:
                self.profiler.register_actor(pid, "replica")
            for pid in self.client_pids:
                self.profiler.register_actor(pid, "client")
            self.profiler.register_actor(starter_pid, "other")
        obs = Obs(self.metrics, self.tracer, self.profiler)
        self.network = SimNetwork(topology, seed=spec.seed, obs=obs)
        self.kernel = Kernel(seed=spec.seed, obs=obs)
        self.world = World(
            self.kernel,
            self.network,
            obs=obs,
            measure_bytes=spec.measure_bytes,
        )

        config = ReplicaConfig(
            peers=self.replica_pids,
            state_mode=spec.state_mode,
            xpaxos_reads=spec.xpaxos_reads,
            accept_retry=spec.accept_retry,
            prepare_retry=spec.prepare_retry,
            checkpoint_interval=spec.checkpoint_interval,
            execute_time=spec.execute_time,
            txn_timeout=spec.txn_timeout,
            fsync_mode=spec.fsync,
            fsync_latency=spec.fsync_latency,
            track_commits=spec.track_commits,
        )
        self.config = config

        #: Initial leader of each group, spread round-robin over replicas
        #: so sharding actually distributes leader work.
        self.group_leader_pids = tuple(
            self.replica_pids[g % spec.n_replicas] for g in range(spec.groups)
        )
        self._manual_electors: list[ManualElectorGroup] = []
        if spec.elector == "manual":
            self._manual_electors = [
                ManualElectorGroup(leader) for leader in self.group_leader_pids
            ]

        replica_cpu = profile.replica_cpu
        if spec.connection_scaling:
            replica_cpu = profile.replica_cpu_for(n_clients)

        #: The replica processes. Protocol state lives one level down, in
        #: each host's groups: see :meth:`group_replicas`.
        self.replicas: dict[ProcessId, GroupHost] = {}
        def elector(pid: ProcessId, g: int) -> LeaderElector:
            if spec.elector == "static":
                return StaticElector(self.group_leader_pids[g])
            if spec.elector == "manual":
                return self._manual_electors[g].elector_for(pid)
            return OmegaElector(
                heartbeat_interval=spec.omega_heartbeat,
                suspect_timeout=spec.omega_timeout,
            )

        for pid in self.replica_pids:
            electors = [elector(pid, g) for g in range(spec.groups)]
            host = GroupHost(pid, config, service_factory, electors, obs=obs)
            self.world.add(host, cpu=replica_cpu)
            self.replicas[pid] = host

        self.clients: list[Client] = []
        for pid, steps in zip(self.client_pids, client_steps, strict=True):
            client = Client(
                pid,
                replicas=self.replica_pids,
                steps=steps,
                timeout=spec.client_timeout,
                wait_for_start=True,
                retry_aborted=spec.retry_aborted,
                max_abort_retries=spec.max_abort_retries,
                backoff=spec.client_backoff,
                timeout_cap=spec.client_timeout_cap,
                jitter=spec.client_jitter,
                obs=obs,
            )
            self.world.add(client, cpu=profile.client_cpu)
            self.clients.append(client)

        self.starter = Starter(starter_pid, self.client_pids, at=START_AT)
        self.world.add(self.starter, cpu=profile.client_cpu)

        self._started = False

    # ---------------------------------------------------------------- running
    @property
    def leader_pid(self) -> ProcessId:
        """The initial/benchmark leader: the first replica (as in §4's WAN
        configuration, where the leader ran at UIUC)."""
        return self.replica_pids[0]

    def group_replicas(self, group: int = 0) -> dict[ProcessId, ReplicationGroup]:
        """Group ``group``'s replica on every process, by pid: where the
        log, service copy, role and store of the paper's "replica" live."""
        return {pid: host.groups[group] for pid, host in self.replicas.items()}

    def leader(self, group: int = 0) -> ReplicationGroup:
        """Group ``group``'s replica on its initial leader's process."""
        return self.replicas[self.group_leader_pids[group]].groups[group]

    def manual_electors_for(self, group: int = 0) -> ManualElectorGroup:
        """Group ``group``'s manual-elector group (manual elector only)."""
        if not self._manual_electors:
            raise ConfigError("switching leaders by hand requires the 'manual' elector")
        return self._manual_electors[group]

    @property
    def all_done(self) -> bool:
        return all(c.done for c in self.clients)

    def run(self, max_time: float = 600.0, check_interval: float = 0.05) -> "Cluster":
        """Run until every client finished its steps (or ``max_time``)."""
        if not self._started:
            self.world.start()
            self._started = True
        while not self.all_done:
            if self.kernel.now >= max_time:
                unfinished = [c.pid for c in self.clients if not c.done]
                raise SimulationError(
                    f"run exceeded max_time={max_time}s with unfinished "
                    f"clients {unfinished} at t={self.kernel.now:.3f}s"
                )
            self.kernel.run(until=min(self.kernel.now + check_interval, max_time))
        return self

    def start(self) -> "Cluster":
        """Start the world without running (for fault-schedule composition)."""
        if not self._started:
            self.world.start()
            self._started = True
        return self

    # ---------------------------------------------------------------- queries
    def replica_fingerprints(self) -> dict[ProcessId, object]:
        """Service-state digests of all *alive* replicas (convergence checks).

        Note: backups converge to the leader's state as of their applied
        frontier; immediately after a run every committed instance has been
        broadcast, so after the pipeline drains these should be equal.
        One fingerprint per hosted group, keyed ``pid/g<group>``.
        """
        return {
            f"{pid}/g{g}": group.service.state_fingerprint()
            for pid, host in self.replicas.items()
            for g, group in sorted(host.groups.items())
            if group.alive  # a crashed process has no live group
        }

    def drain(self, grace: float = 2.0) -> "Cluster":
        """Run a little longer so Chosen broadcasts reach every backup."""
        self.kernel.run(until=self.kernel.now + grace)
        return self

    def export_timeline(self, path: str) -> str:
        """Write this run's metrics (and spans, if recorded) as a JSONL
        timeline readable by ``repro report`` — see :mod:`repro.obs.timeline`."""
        from repro.obs.timeline import export_run  # local import: cycle guard

        return str(export_run(self, path))

    def export_chrome(self, path: str) -> str:
        """Write the causal spans as a Chrome trace-event file (load it at
        ``ui.perfetto.dev`` or ``chrome://tracing``). Requires
        ``ClusterSpec.tracing=True``; with ``profiling=True`` the profiler's
        deterministic counter track rides along as Perfetto counter rows."""
        from repro.obs.chrome import export_chrome  # local import: cycle guard

        if not self.tracer.enabled:
            raise ConfigError("chrome export needs ClusterSpec(tracing=True)")
        counters = None
        if self.profiler.enabled:
            from repro.obs.prof.export import counter_samples

            counters = counter_samples(self.profiler)
        return str(
            export_chrome(
                self.tracer.store, path, horizon=self.kernel.now, counters=counters
            )
        )
