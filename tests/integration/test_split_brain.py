"""Split-brain safety: a deposed leader in a minority partition must never
commit, and must fold back cleanly when the partition heals."""

from __future__ import annotations

import pytest

from repro.client.workload import single_kind_steps
from repro.cluster.faults import FaultSchedule
from repro.core.replica import ReplicaRole
from repro.services.counter import CounterService
from repro.services.kvstore import KVStoreService
from repro.types import RequestKind
from tests.integration.util import build_cluster


class TestMinorityLeader:
    def build(self, n_writes=20, **kw):
        steps = single_kind_steps(RequestKind.WRITE, n_writes, op=("add", 1))
        kw.setdefault("service_factory", CounterService)
        kw.setdefault("elector", "manual")
        kw.setdefault("client_timeout", 0.05)
        return build_cluster([steps], **kw)

    def test_minority_leader_commits_nothing(self):
        cluster = self.build()
        schedule = FaultSchedule(cluster)
        # Cut r0 (still believing it leads) from r1, r2. Clients can reach
        # everyone, so r0 keeps receiving and queueing requests.
        schedule.partition([["r0"], ["r1", "r2"]], at=0.001)
        cluster.start()
        cluster.kernel.run(until=1.0)
        r0 = cluster.group_replicas()["r0"]
        assert r0.log.frontier == 0
        assert cluster.clients[0].completed_requests == 0

    def test_majority_side_takes_over_and_serves(self):
        cluster = self.build()
        schedule = FaultSchedule(cluster)
        schedule.partition([["r0"], ["r1", "r2"]], at=0.001)
        # The majority side elects r1 (r0's elector still says r0 — a real
        # split-brain view).
        for pid in ("r1", "r2"):
            cluster.kernel.schedule_at(
                0.01, cluster.manual_electors_for().electors[pid].set_leader, "r1"
            )
        cluster.run(max_time=60.0)
        assert cluster.clients[0].completed_requests == 20
        assert cluster.group_replicas()["r1"].role is ReplicaRole.LEADING

    def test_heal_deposes_old_leader_without_divergence(self):
        cluster = self.build()
        schedule = FaultSchedule(cluster)
        schedule.partition([["r0"], ["r1", "r2"]], at=0.001)
        for pid in ("r1", "r2"):
            cluster.kernel.schedule_at(
                0.01, cluster.manual_electors_for().electors[pid].set_leader, "r1"
            )
        schedule.heal(at=0.5)
        # After healing, tell r0's elector the truth too (a real Ω would).
        cluster.kernel.schedule_at(
            0.6, cluster.manual_electors_for().electors["r0"].set_leader, "r1"
        )
        cluster.run(max_time=60.0)
        cluster.drain(3.0)
        assert cluster.group_replicas()["r0"].role is ReplicaRole.FOLLOWER
        values = {r.service.value for r in cluster.group_replicas().values()}
        assert values == {20}

    def test_old_leader_nacked_if_it_retries_after_heal(self):
        # r0 keeps believing it leads even after the heal; its stale-ballot
        # rounds are Nacked and it steps down, never corrupting anything.
        cluster = self.build()
        schedule = FaultSchedule(cluster)
        schedule.partition([["r0"], ["r1", "r2"]], at=0.001)
        for pid in ("r1", "r2"):
            cluster.kernel.schedule_at(
                0.01, cluster.manual_electors_for().electors[pid].set_leader, "r1"
            )
        schedule.heal(at=0.3)
        cluster.run(max_time=60.0)
        cluster.drain(3.0)
        r0 = cluster.group_replicas()["r0"]
        # r0 retried leadership across the heal and got preempted at least
        # once (its elector never changed its mind), or is still harmlessly
        # recovering with stale ballots; either way nothing diverged.
        values = {r.service.value for r in cluster.group_replicas().values()}
        assert values == {20}
        assert r0.applied == 20  # it caught up as an acceptor

    def test_reads_never_served_by_minority_leader(self):
        steps = single_kind_steps(RequestKind.READ, 5)
        cluster = build_cluster(
            [steps], service_factory=KVStoreService,
            elector="manual", client_timeout=0.05,
        )
        schedule = FaultSchedule(cluster)
        schedule.partition([["r0"], ["r1", "r2"]], at=0.001)
        cluster.start()
        cluster.kernel.run(until=1.0)
        # No confirms can reach r0: zero reads served.
        counters = cluster.metrics.counters("proc.r0.g0.")
        assert counters["proc.r0.g0.req.read"] >= 1
        assert "proc.r0.g0.xpaxos.reads_served" not in counters
        assert cluster.clients[0].completed_requests == 0
