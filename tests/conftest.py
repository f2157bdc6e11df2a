"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Any, NamedTuple

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--perf",
        action="store_true",
        default=False,
        help="run the perf-regression tier (tests marked 'perf')",
    )


def pytest_collection_modifyitems(
    config: pytest.Config, items: list[pytest.Item]
) -> None:
    """The perf tier is opt-in: wall-clock floors are meaningless on a
    loaded laptop, so plain ``pytest`` never runs them."""
    if config.getoption("--perf"):
        return
    skip_perf = pytest.mark.skip(reason="perf tier: opt in with --perf")
    for item in items:
        if "perf" in item.keywords:
            item.add_marker(skip_perf)

from repro.net.latency import ConstantLatency
from repro.net.link import LinkSpec
from repro.net.profiles import NetworkProfile
from repro.net.topology import Topology
from repro.sim.cpu import CpuProfile
from repro.sim.process import payload_of
from repro.sim.world import World
from repro.types import ProcessId


def _flat_builder(replicas, clients):
    topo = Topology(default=LinkSpec(latency=ConstantLatency(1e-3), jitter_reorder=False))
    topo.place_all(list(replicas), "site")
    topo.place_all(list(clients), "site")
    return topo


def make_test_profile(latency: float = 1e-3) -> NetworkProfile:
    """A featureless profile for protocol-behaviour tests: constant
    ``latency`` everywhere, free CPUs, no jitter — so assertions about
    message counts and orderings are exact."""

    def builder(replicas, clients):
        topo = Topology(
            default=LinkSpec(latency=ConstantLatency(latency), jitter_reorder=False)
        )
        topo.place_all(list(replicas), "site")
        topo.place_all(list(clients), "site")
        return topo

    return NetworkProfile(
        name="test",
        description="flat constant-latency test profile",
        replica_cpu=CpuProfile(),
        client_cpu=CpuProfile(),
        paper_rrt={},
        _builder=builder,
        per_connection_overhead=0.0,
    )


@pytest.fixture
def flat_profile() -> NetworkProfile:
    return make_test_profile()


@pytest.fixture
def fast_profile() -> NetworkProfile:
    """Sub-millisecond profile for tests that run many requests."""
    return make_test_profile(latency=50e-6)


class Sent(NamedTuple):
    """One message a live process sent in a simulated world."""

    time: float
    src: ProcessId
    dst: ProcessId
    msg: Any  # what it carries: an envelope's payload


@pytest.fixture
def sent(monkeypatch: pytest.MonkeyPatch) -> list[Sent]:
    """Every message sent by a live process of any ``World`` during the
    test, one entry per destination, in send order. For tests that read
    payloads; a count is the registry's (``proc.<pid>.send.<T>``)."""
    records: list[Sent] = []
    route = World._send

    def recording(world, src, dst, msg, size=None):
        sender = world._processes.get(src)
        if sender is not None and sender.alive:
            records.append(Sent(world.kernel.now, src, dst, payload_of(msg)))
        route(world, src, dst, msg, size)

    monkeypatch.setattr(World, "_send", recording)
    return records
