"""The simulated network: routes messages according to a topology.

One :class:`repro.net.link.Link` instance is materialized per directed
process pair so that FIFO state and RNG streams are independent per pair —
two clients talking to the same replica never perturb each other's jitter
stream, which keeps experiments reproducible under composition.

On top of the static per-link behaviour the network supports *runtime
disturbances* — temporary loss/duplication probabilities and added latency
applied to every link at once. Fault schedules and the chaos engine use
them to model congestion bursts and transient path degradation without
rebuilding the topology. Disturbance decisions draw from their own seeded
RNG stream, so enabling a burst never perturbs the per-link jitter streams
of messages outside the burst window.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.net.link import Link
from repro.net.partition import PartitionController
from repro.net.topology import Topology
from repro.obs.handle import NULL_OBS, Obs
from repro.types import ProcessId


@dataclass(slots=True)
class Disturbance:
    """Transient, network-wide adversarial behaviour (congestion bursts).

    * ``loss`` — extra probability a message is dropped (cause
      ``"disturbance"``).
    * ``duplicate`` — extra probability a delivered message is duplicated.
    * ``extra_latency`` — seconds added to every delivered copy's delay.
    """

    loss: float = 0.0
    duplicate: float = 0.0
    extra_latency: float = 0.0

    @property
    def active(self) -> bool:
        return self.loss > 0.0 or self.duplicate > 0.0 or self.extra_latency > 0.0


class SimNetwork:
    """Implements the :class:`repro.sim.world.NetworkLike` protocol."""

    def __init__(self, topology: Topology, seed: int = 0, obs: Obs = NULL_OBS) -> None:
        self.topology = topology
        self.partitions = PartitionController()
        self._seed = seed
        self._links: dict[tuple[ProcessId, ProcessId], Link] = {}
        #: Counters by (src_site, dst_site) — handy for tests and reports.
        self.messages_sent: dict[tuple[str, str], int] = {}
        self.messages_dropped = 0
        self.messages_duplicated = 0
        #: Observability sink: mirrors the site-pair counters into the run's
        #: registry (``net.site.<src>-><dst>``) plus drop-cause counters.
        self.metrics = obs.metrics
        #: Why the most recent :meth:`delays` call dropped its message
        #: ("partition" | "loss" | "disturbance"), or ``None`` if it
        #: delivered. Read by the world to annotate dropped message spans.
        self.last_drop_cause: str | None = None
        #: Why the most recent :meth:`delays` call duplicated its message
        #: ("link" | "disturbance"), or ``None``. Mirrors ``last_drop_cause``
        #: so duplicated deliveries show up in timelines and span attrs.
        self.last_dup_cause: str | None = None
        #: Current runtime disturbance (none by default). Mutate via
        #: :meth:`set_disturbance` / :meth:`clear_disturbance`.
        self.disturbance = Disturbance()
        self._disturbance_rng = random.Random(f"{seed}/disturbance")
        #: Mirror of ``disturbance.active`` as a plain attribute, so the
        #: per-message fast path pays one load instead of three comparisons.
        self._disturbance_active = False
        #: Route cache: (src, dst) -> (link, site_key, site_counter|None).
        #: Collapses the per-message topology lookups (two ``site_of`` calls,
        #: an f-string metric name, a link-table probe) into one dict hit.
        self._routes: dict[
            tuple[ProcessId, ProcessId], tuple[Link, tuple[str, str], object]
        ] = {}

    def _link(self, src: ProcessId, dst: ProcessId) -> Link:
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            spec = self.topology.link_spec(src, dst)
            rng = random.Random(f"{self._seed}/link/{src}->{dst}")
            link = Link(spec, rng)
            self._links[key] = link
        return link

    def _route(
        self, src: ProcessId, dst: ProcessId
    ) -> tuple[Link, tuple[str, str], object]:
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            site_key = (self.topology.site_of(src), self.topology.site_of(dst))
            counter = (
                self.metrics.counter(f"net.site.{site_key[0]}->{site_key[1]}")
                if self.metrics.enabled
                else None
            )
            route = self._routes[key] = (self._link(src, dst), site_key, counter)
        return route

    # ----------------------------------------------------------- disturbances
    def set_disturbance(
        self,
        loss: float = 0.0,
        duplicate: float = 0.0,
        extra_latency: float = 0.0,
    ) -> None:
        """Install a network-wide disturbance (replaces any previous one)."""
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"disturbance loss must be in [0, 1), got {loss}")
        if not 0.0 <= duplicate <= 1.0:
            raise ValueError(f"disturbance duplicate must be in [0, 1], got {duplicate}")
        if extra_latency < 0.0:
            raise ValueError(f"extra_latency must be >= 0, got {extra_latency}")
        self.disturbance = Disturbance(
            loss=loss, duplicate=duplicate, extra_latency=extra_latency
        )
        self._disturbance_active = self.disturbance.active

    def clear_disturbance(self) -> None:
        self.disturbance = Disturbance()
        self._disturbance_active = False

    # --------------------------------------------------------------- delivery
    def delays(self, src: ProcessId, dst: ProcessId, depart: float) -> tuple[float, ...]:
        self.last_drop_cause = None
        self.last_dup_cause = None
        partitions = self.partitions
        if partitions.active and partitions.blocked(src, dst):
            self.messages_dropped += 1
            self.last_drop_cause = "partition"
            self.metrics.counter("net.drop.partition").inc()
            return ()
        route = self._routes.get((src, dst))
        if route is None:
            route = self._route(src, dst)
        link, site_key, site_counter = route
        sent = self.messages_sent
        sent[site_key] = sent.get(site_key, 0) + 1
        if site_counter is not None:
            site_counter.value += 1
        if self._disturbance_active and src != dst:
            disturbance = self.disturbance
            if disturbance.loss and self._disturbance_rng.random() < disturbance.loss:
                self.messages_dropped += 1
                self.last_drop_cause = "disturbance"
                self.metrics.counter("net.drop.disturbance").inc()
                return ()
        copies = link.delays(depart)
        if not copies:
            self.messages_dropped += 1
            self.last_drop_cause = "loss"
            self.metrics.counter("net.drop.loss").inc()
            return ()
        if len(copies) > 1:
            self.last_dup_cause = "link"
        if self._disturbance_active and src != dst:
            disturbance = self.disturbance
            if (
                disturbance.duplicate
                and len(copies) == 1
                and self._disturbance_rng.random() < disturbance.duplicate
            ):
                copies = (copies[0], copies[0])
                self.last_dup_cause = "disturbance"
            if disturbance.extra_latency:
                copies = tuple(delay + disturbance.extra_latency for delay in copies)
        if self.last_dup_cause is not None:
            self.messages_duplicated += 1
            self.metrics.counter("net.dup").inc()
            self.metrics.counter(f"net.dup.{self.last_dup_cause}").inc()
        return copies

    def total_messages(self) -> int:
        return sum(self.messages_sent.values())
