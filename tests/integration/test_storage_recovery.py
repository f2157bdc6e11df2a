"""Integration tests for the stable-storage subsystem: fsync modes end to
end, crash-restart WAL replay vs peer state transfer, storage nemeses, and
crashes landing mid-catch-up on every protocol."""

from __future__ import annotations

import pickle

import pytest

from repro.client.workload import Step, single_kind_steps, txn_steps
from repro.cluster.faults import FaultSchedule
from repro.services.counter import CounterService
from repro.services.kvstore import KVStoreService
from repro.types import RequestKind
from tests.integration.util import build_cluster, converged_fingerprints


def write_steps(count: int):
    return single_kind_steps(RequestKind.WRITE, count, op=("add", 1))


def storage_counter(cluster, name: str) -> int:
    """Sum of one storage counter over all replicas (scoped as proc.<pid>)."""
    return sum(
        value
        for key, value in cluster.metrics.counters().items()
        if key.endswith(f"storage.{name}")
    )


class TestFsyncModes:
    def test_sync_mode_completes_and_converges(self):
        cluster = build_cluster(
            [write_steps(20)], service_factory=CounterService, fsync="sync"
        )
        cluster.run(max_time=30.0)
        assert cluster.clients[0].completed_requests == 20
        prints = converged_fingerprints(cluster)
        assert len(set(prints.values())) == 1
        # One fsync covers every record appended since the last one.
        assert 0 < storage_counter(cluster, "fsyncs") < storage_counter(cluster, "appends")

    def test_sync_mode_is_slower_than_async(self):
        # Durability barriers cost modeled time; the same workload must
        # finish strictly later when every barrier waits for the platter.
        def finish(fsync):
            cluster = build_cluster(
                [write_steps(10)], service_factory=CounterService, fsync=fsync
            )
            cluster.run(max_time=30.0)
            return max(
                r.completed_at for r in cluster.clients[0].request_records()
            )

        assert finish("sync") > finish("async")

    def test_async_mode_is_deterministic(self):
        def probe():
            cluster = build_cluster(
                [write_steps(15)], service_factory=CounterService, fsync="async"
            )
            cluster.run(max_time=30.0)
            records = [
                (str(r.rid), r.sent_at, r.completed_at)
                for r in cluster.clients[0].request_records()
            ]
            return records, dict(cluster.metrics.counters())

        assert probe() == probe()


class TestCrashRestartReplay:
    def test_replayed_log_matches_peer_rebuild(self):
        # Acceptance: after a crash-restart, the chosen log the replica
        # rebuilds from checkpoint + WAL replay (plus catch-up) must be
        # byte-identical to what its never-crashed peer holds.
        steps = single_kind_steps(
            RequestKind.WRITE, 30, op=lambda i: ("put", i, i)
        )
        cluster = build_cluster(
            [steps], service_factory=KVStoreService, fsync="sync", seed=3
        )
        FaultSchedule(cluster).crash("r1", at=0.05).recover("r1", at=0.4)
        cluster.run(max_time=60.0)
        assert cluster.clients[0].completed_requests == 30
        prints = converged_fingerprints(cluster)
        assert len(set(prints.values())) == 1
        restarted = cluster.group_replicas()["r1"]
        peer = cluster.group_replicas()["r2"]
        assert restarted.alive
        assert cluster.metrics.counter_value("proc.r1.g0.recovers") >= 1
        peer_chosen = dict(peer.log.chosen_items())
        mine = dict(restarted.log.chosen_items())
        common = sorted(set(mine) & set(peer_chosen))
        assert common, "no overlapping chosen instances to compare"
        for instance in common:
            assert pickle.dumps(mine[instance]) == pickle.dumps(
                peer_chosen[instance]
            ), f"instance {instance} diverges after replay"

    def test_restart_replays_the_wal(self):
        cluster = build_cluster(
            [write_steps(20)], service_factory=CounterService, fsync="sync"
        )
        FaultSchedule(cluster).crash("r1", at=0.05).recover("r1", at=0.3)
        cluster.run(max_time=60.0)
        cluster.drain(1.0)  # the workload may finish before the recover fires
        assert storage_counter(cluster, "replays") >= 1
        assert cluster.replicas["r1"].alive
        assert len(set(converged_fingerprints(cluster).values())) == 1


class TestStorageNemeses:
    def test_torn_write_truncates_tail_and_rejoins(self):
        cluster = build_cluster(
            [write_steps(25)], service_factory=CounterService, fsync="sync",
            seed=2,
        )
        schedule = FaultSchedule(cluster)
        schedule.torn_write("r1", at=0.02)
        schedule.crash("r1", at=0.03).recover("r1", at=0.3)
        cluster.run(max_time=60.0)
        cluster.drain(1.0)
        counters = cluster.metrics.counters()
        assert counters["fault.torn_write"] == 1
        assert cluster.replicas["r1"].alive  # torn tails are survivable
        assert cluster.clients[0].completed_requests == 25
        assert len(set(converged_fingerprints(cluster).values())) == 1

    def test_lost_fsync_crash_fail_stops(self):
        cluster = build_cluster(
            [write_steps(25)], service_factory=CounterService, fsync="sync",
            seed=4,
        )
        schedule = FaultSchedule(cluster)
        schedule.lost_fsync("r1", at=0.01, duration=0.05)
        schedule.crash("r1", at=0.03).recover("r1", at=0.3)
        cluster.run(max_time=60.0)
        cluster.drain(1.0)
        restarted = cluster.group_replicas()["r1"]
        assert not restarted.alive  # rejoining would be Byzantine
        assert cluster.metrics.counter_value("proc.r1.g0.storage.halts") == 1
        assert not restarted.store.pump.intact
        assert storage_counter(cluster, "halts") >= 1
        # The cluster rides out the fail-stop on the remaining majority.
        assert cluster.clients[0].completed_requests == 25
        assert len(set(converged_fingerprints(cluster).values())) == 1

    def test_corrupt_record_fail_stops_on_restart(self):
        cluster = build_cluster(
            [write_steps(25)], service_factory=CounterService, fsync="sync",
            seed=5,
        )
        schedule = FaultSchedule(cluster)
        schedule.corrupt_record("r1", at=0.05, fraction=0.3)
        schedule.crash("r1", at=0.06).recover("r1", at=0.3)
        cluster.run(max_time=60.0)
        cluster.drain(1.0)
        restarted = cluster.group_replicas()["r1"]
        assert not restarted.alive
        assert cluster.metrics.counter_value("proc.r1.g0.storage.halts") == 1
        assert cluster.clients[0].completed_requests == 25


def protocol_cluster(protocol: str, **overrides):
    if protocol == "tpaxos":
        steps = txn_steps(
            8, lambda i: (("put", f"k{i}", i), ("put", f"j{i}", i)), optimized=True
        )
        service = KVStoreService
    elif protocol == "xpaxos":
        steps = []
        for i in range(12):
            steps.append(Step(requests=((RequestKind.WRITE, ("put", "k", i)),)))
            steps.append(Step(requests=((RequestKind.READ, ("get", "k")),)))
        service = KVStoreService
    else:
        steps = single_kind_steps(RequestKind.WRITE, 20, op=("add", 1))
        service = CounterService
    return build_cluster(
        [steps],
        service_factory=service,
        xpaxos_reads=protocol == "xpaxos",
        tpaxos=protocol == "tpaxos",
        **overrides,
    )


class TestCrashMidCatchUp:
    """A replica that crashes again while installing a snapshot / catching
    up must converge after its second restart, on every protocol."""

    @pytest.mark.parametrize("protocol", ("basic", "xpaxos", "tpaxos"))
    def test_double_crash_through_catch_up_converges(self, protocol):
        cluster = protocol_cluster(
            protocol, fsync="sync", checkpoint_interval=5, seed=7
        )
        schedule = FaultSchedule(cluster)
        # First outage long enough that the leader checkpoints past r1's
        # log, forcing snapshot install on rejoin; the second crash lands
        # right in that window.
        schedule.crash("r1", at=0.02).recover("r1", at=0.35)
        schedule.crash("r1", at=0.352).recover("r1", at=0.5)
        cluster.run(max_time=60.0)  # a ProtocolError here fails the test
        cluster.drain(2.0)  # fire the restarts and let catch-up finish
        assert cluster.replicas["r1"].alive
        assert cluster.metrics.counter_value("proc.r1.g0.recovers") >= 2
        prints = converged_fingerprints(cluster)
        assert len(set(prints.values())) == 1


class TestCommitTracking:
    """The ``track_commits`` fold grows with the clients, not the history."""

    @staticmethod
    def _fold_runs(writes_per_client: int) -> dict[str, list[int]]:
        """Runs per client in each replica's checkpoint fold after a tracked
        ``fsync=sync`` run of 4 clients x ``writes_per_client`` writes."""
        cluster = build_cluster(
            [write_steps(writes_per_client) for _ in range(4)],
            service_factory=CounterService, fsync="sync", track_commits=True,
        )
        cluster.run(max_time=600.0)
        assert sum(c.completed_requests for c in cluster.clients) == 4 * writes_per_client
        runs = {}
        for host in cluster.replicas.values():
            for group in host.groups.values():
                fold = group.store.checkpoint_rids
                assert [client for client, _spans in fold.runs] == ["c0", "c1", "c2", "c3"]
                runs[group.pid] = [len(spans) for _client, spans in fold.runs]
        return runs

    def test_checkpoint_fold_holds_one_run_per_client(self):
        # Each client's writes are chosen in seq order with no read in
        # between, so every checkpoint folds them into a single run.
        short = self._fold_runs(3000)
        assert short == {pid: [1, 1, 1, 1] for pid in ("r0", "r1", "r2")}
        assert self._fold_runs(6000) == short
