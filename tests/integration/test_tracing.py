"""Integration tests for causal request tracing: span-tree reconstruction
under message drops and leader switches, orphan flagging on truncated
exports, and the passivity regression (tracing on vs off must produce
byte-identical runs)."""

from __future__ import annotations

import pickle

import pytest

from repro.client.workload import paper_txn_steps, single_kind_steps
from repro.cluster.faults import FaultSchedule
from repro.cluster.harness import Cluster, ClusterSpec
from repro.net.latency import UniformLatency
from repro.net.link import LinkSpec
from repro.net.profiles import NetworkProfile
from repro.net.topology import Topology
from repro.obs.timeline import load_export
from repro.sim.cpu import CpuProfile
from repro.types import RequestKind
from tests.conftest import make_test_profile


def lossy_profile(loss: float) -> NetworkProfile:
    def builder(replicas, clients):
        topo = Topology(
            default=LinkSpec(
                latency=UniformLatency(0.5e-3, 2e-3), loss=loss, jitter_reorder=False
            )
        )
        topo.place_all(list(replicas), "site")
        topo.place_all(list(clients), "site")
        return topo

    return NetworkProfile(
        name="lossy",
        description=f"loss={loss}",
        replica_cpu=CpuProfile(),
        client_cpu=CpuProfile(),
        paper_rrt={},
        _builder=builder,
        per_connection_overhead=0.0,
    )


def traced_cluster(profile=None, steps=None, **overrides) -> Cluster:
    spec = ClusterSpec(
        profile=profile if profile is not None else make_test_profile(),
        tracing=True,
        **overrides,
    )
    if steps is None:
        steps = [single_kind_steps(RequestKind.WRITE, 10)]
    return Cluster(spec, steps)


def request_roots(cluster: Cluster):
    return [s for s in cluster.tracer.store.roots() if s.kind == "request"]


class TestSpanTreesUnderDrops:
    def test_dropped_messages_recorded_not_orphaned(self):
        cluster = traced_cluster(
            profile=lossy_profile(0.25),
            seed=11,
            client_timeout=0.05,
            accept_retry=0.02,
            prepare_retry=0.02,
        )
        cluster.run(max_time=120.0).drain()
        store = cluster.tracer.store
        dropped = [s for s in store.find(kind="message") if s.status == "dropped"]
        assert dropped, "a 25%-loss run must record dropped message spans"
        assert all(s.attrs.get("cause") == "loss" for s in dropped)
        roots = request_roots(cluster)
        assert len(roots) == 10
        for root in roots:
            assert root.finished, "every request completed despite the loss"
            tree = store.tree(root.trace_id)
            # The in-memory store is complete: drops mark spans, they never
            # detach subtrees.
            assert tree.orphans == []
        retransmitted = [r for r in roots if r.attrs.get("retransmits")]
        assert retransmitted, "a lossy run must retransmit at least once"

    def test_every_span_parent_resolves_in_memory(self):
        cluster = traced_cluster(seed=3)
        cluster.run(max_time=30.0).drain()
        store = cluster.tracer.store
        for span in store:
            if span.parent_id is not None:
                parent = store.get(span.parent_id)
                assert parent is not None
                assert parent.trace_id == span.trace_id


class TestSpanTreesUnderLeaderSwitch:
    def run_with_switch(self, seed=2):
        cluster = traced_cluster(
            steps=[single_kind_steps(RequestKind.WRITE, 20)],
            elector="manual",
            client_timeout=0.05,
            seed=seed,
        )
        FaultSchedule(cluster).switch_leader("r1", at=0.012)
        cluster.run(max_time=60.0).drain()
        return cluster

    def test_takeover_trace_with_recovery_child(self):
        cluster = self.run_with_switch()
        store = cluster.tracer.store
        takeovers = [s for s in store.roots() if s.kind == "takeover"]
        assert any(s.name == "takeover:r1" for s in takeovers)
        done = [s for s in takeovers if s.finished and s.status == "ok"]
        assert done, "r1's takeover must complete"
        recoveries = store.find(name="recovery", kind="recovery")
        assert any(
            r.parent_id in {s.span_id for s in takeovers} for r in recoveries
        ), "the recovery span hangs under its takeover trace"

    def test_abandoned_spans_flagged_and_requests_complete(self):
        cluster = self.run_with_switch()
        store = cluster.tracer.store
        assert cluster.clients[0].completed_requests == 20
        roots = request_roots(cluster)
        assert len(roots) == 20 and all(r.finished for r in roots)
        # The deposed leader's in-flight round is abandoned, not silently
        # closed: its status names the reason.
        statuses = {s.status for s in store if not s.status.startswith("ok")}
        assert statuses <= {
            "abandoned", "stepped_down", "cancelled", "dropped",
        } | {s for s in statuses if s.startswith("aborted")}

    def test_truncated_export_flags_orphans(self, tmp_path):
        cluster = self.run_with_switch()
        path = tmp_path / "run.jsonl"
        cluster.export_timeline(str(path))
        # Simulate a torn export: drop some span lines and corrupt another.
        lines = path.read_text().splitlines()
        span_indices = [i for i, l in enumerate(lines) if '"record":"span"' in l]
        assert len(span_indices) > 10
        removed = set(span_indices[2:6])
        kept = [l for i, l in enumerate(lines) if i not in removed]
        kept.insert(len(kept) // 2, "{torn line")
        path.write_text("\n".join(kept) + "\n")

        with pytest.warns(RuntimeWarning, match="skipped 1 unparseable"):
            export = load_export(path)
        assert export.skipped == 1
        store = export.span_store()
        orphan_total = 0
        flagged_ids = set()
        for trace_id in store.trace_ids():
            tree = store.tree(trace_id)
            orphan_total += len(tree.orphans)
            flagged_ids.update(s.span_id for s in tree.orphans)
            # Orphans stay visible in walks and waterfalls.
            walked = {s.span_id for s, _d in tree.walk()}
            assert {s.span_id for s in tree.orphans} <= walked
        assert orphan_total > 0, "removing parents must surface orphans"
        exported_ids = {s.span_id for s in store}
        assert flagged_ids <= exported_ids


class TestTracingDeterminism:
    WORKLOADS = [
        pytest.param(lambda: single_kind_steps(RequestKind.WRITE, 10), id="writes"),
        pytest.param(lambda: single_kind_steps(RequestKind.READ, 10), id="reads"),
        pytest.param(lambda: paper_txn_steps("optimized", 3, 5), id="txns"),
    ]

    @staticmethod
    def run(tracing: bool, steps_factory, seed: int = 7) -> Cluster:
        spec = ClusterSpec(
            profile=make_test_profile(), seed=seed, tracing=tracing
        )
        steps = [steps_factory() for _ in range(2)]
        return Cluster(spec, steps).run().drain()

    @staticmethod
    def chosen_log_bytes(cluster: Cluster) -> dict:
        return {
            pid: pickle.dumps(replica.log.chosen_above(0))
            for pid, replica in cluster.group_replicas().items()
        }

    @pytest.mark.parametrize("steps_factory", WORKLOADS)
    def test_tracing_cannot_perturb_the_run(self, steps_factory):
        traced = self.run(tracing=True, steps_factory=steps_factory)
        bare = self.run(tracing=False, steps_factory=steps_factory)
        assert self.chosen_log_bytes(traced) == self.chosen_log_bytes(bare)
        assert traced.kernel.now == bare.kernel.now
        for pid in traced.replicas:
            assert (
                traced.group_replicas()[pid].service.state_fingerprint()
                == bare.group_replicas()[pid].service.state_fingerprint()
            )
        assert len(traced.tracer.store) > 0
        assert not bare.tracer.enabled
