"""Shared helpers for integration tests."""

from __future__ import annotations

from typing import Callable, Sequence

from repro.client.workload import Step
from repro.cluster.harness import Cluster, ClusterSpec
from repro.services.base import Service
from repro.services.noop import NoopService
from repro.types import RequestKind, StateTransferMode
from tests.conftest import make_test_profile


def build_cluster(
    client_steps: Sequence[Sequence[Step]],
    service_factory: Callable[[], Service] = NoopService,
    latency: float = 1e-3,
    seed: int = 0,
    **spec_overrides,
) -> Cluster:
    """A 3-replica cluster on the flat constant-latency test profile."""
    spec_overrides.setdefault("client_timeout", 0.2)
    spec = ClusterSpec(profile=make_test_profile(latency), seed=seed, **spec_overrides)
    return Cluster(spec, client_steps, service_factory=service_factory)


def paced_adds(count: int, gap: float = 0.01) -> list[Step]:
    """``count`` counter increments, each after ``gap`` seconds of think
    time, so a run outlasts a fault schedule instead of ending before it."""
    return [
        Step(requests=((RequestKind.WRITE, ("add", 1)),), label="write", gap=gap)
        for _ in range(count)
    ]


def elections(cluster: Cluster) -> int:
    """How many times any replica became leader (its ``leader.elected``)."""
    return sum(
        value
        for name, value in cluster.metrics.counters().items()
        if name.endswith(".leader.elected")
    )


def converged_fingerprints(cluster: Cluster, grace: float = 1.0) -> dict:
    """Run the drain period and return all alive replicas' fingerprints."""
    cluster.drain(grace)
    return cluster.replica_fingerprints()
