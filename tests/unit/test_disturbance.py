"""Unit tests for runtime network disturbances (loss/dup/latency bursts)
and their observability counters (``net.dup``, ``last_dup_cause``)."""

from __future__ import annotations

import pytest

from repro.net.latency import ConstantLatency
from repro.net.link import LinkSpec
from repro.net.network import Disturbance, SimNetwork
from repro.net.topology import Topology
from repro.obs.handle import Obs
from repro.obs.registry import MetricsRegistry


def make_network(seed: int = 0, **spec_kw) -> SimNetwork:
    spec_kw.setdefault("latency", ConstantLatency(1e-3))
    spec_kw.setdefault("jitter_reorder", False)
    topo = Topology(default=LinkSpec(**spec_kw))
    topo.place_all(["a", "b"], "site")
    return SimNetwork(topo, seed=seed, obs=Obs(metrics=MetricsRegistry()))


class TestDisturbanceConfig:
    def test_inactive_by_default(self):
        assert not make_network().disturbance.active

    def test_set_and_clear(self):
        network = make_network()
        network.set_disturbance(loss=0.5)
        assert network.disturbance == Disturbance(loss=0.5)
        network.clear_disturbance()
        assert not network.disturbance.active

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss": -0.1},
            {"loss": 1.0},
            {"duplicate": -0.1},
            {"duplicate": 1.5},
            {"extra_latency": -1.0},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_network().set_disturbance(**kwargs)


class TestDisturbanceDelivery:
    def test_certain_duplicate_counts_and_records_cause(self):
        network = make_network()
        network.set_disturbance(duplicate=1.0)
        copies = network.delays("a", "b", depart=0.0)
        assert len(copies) == 2
        assert copies[0] == copies[1]  # same-instant duplicate, not delayed
        assert network.last_dup_cause == "disturbance"
        assert network.messages_duplicated == 1
        counters = network.metrics.counters()
        assert counters["net.dup"] == 1
        assert counters["net.dup.disturbance"] == 1

    def test_dup_cause_cleared_on_clean_delivery(self):
        network = make_network()
        network.set_disturbance(duplicate=1.0)
        network.delays("a", "b", depart=0.0)
        network.clear_disturbance()
        copies = network.delays("a", "b", depart=0.0)
        assert len(copies) == 1
        assert network.last_dup_cause is None

    def test_link_level_duplicate_reported_as_link(self):
        network = make_network(duplicate=1.0)  # duplication on the link spec
        network.delays("a", "b", depart=0.0)
        assert network.last_dup_cause == "link"
        assert network.metrics.counters()["net.dup.link"] == 1

    def test_loss_burst_drops_and_records_cause(self):
        network = make_network()
        network.set_disturbance(loss=0.999999)
        dropped = sum(
            1 for _ in range(20) if network.delays("a", "b", depart=0.0) == ()
        )
        assert dropped == 20
        assert network.last_drop_cause == "disturbance"
        assert network.metrics.counters()["net.drop.disturbance"] == 20

    def test_extra_latency_applied_to_every_copy(self):
        network = make_network()
        base = network.delays("a", "b", depart=0.0)[0]
        network.set_disturbance(extra_latency=0.25)
        spiked = network.delays("a", "b", depart=0.0)
        assert all(delay == pytest.approx(base + 0.25) for delay in spiked)

    def test_self_messages_untouched(self):
        network = make_network()
        network.set_disturbance(loss=0.999999, duplicate=1.0)
        copies = network.delays("a", "a", depart=0.0)
        assert len(copies) == 1

    def test_disturbance_rng_is_seeded_and_independent(self):
        # Same seed -> same drop pattern; the per-link jitter streams are not
        # consumed by disturbance decisions.
        def pattern(seed):
            network = make_network(seed=seed)
            network.set_disturbance(loss=0.5)
            return [network.delays("a", "b", depart=0.0) == () for _ in range(50)]

        assert pattern(1) == pattern(1)
        assert pattern(1) != pattern(2)
