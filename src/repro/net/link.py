"""Links: a latency model plus optional adversarial behaviour.

The paper assumes reliable channels (messages between correct processes are
eventually delivered). Protocol correctness, however, must survive
*duplication* and *reordering* — Paxos explicitly tolerates both — so links
can be configured to inject them for the safety tests. Loss is also
available for stress tests; the protocol layer's retransmission restores
the reliable-channel abstraction on top.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.net.latency import ConstantLatency, LatencyModel


@dataclass(frozen=True, slots=True)
class LinkSpec:
    """Static description of one (directed) link's behaviour.

    * ``latency`` — one-way delay distribution.
    * ``loss`` — probability a message copy is silently dropped.
    * ``duplicate`` — probability a message is delivered twice.
    * ``jitter_reorder`` — when True, each copy samples latency
      independently, so consecutive messages can overtake each other.
      When False the link enforces FIFO by never letting a later message
      arrive before an earlier one (TCP-like).
    """

    latency: LatencyModel = field(default_factory=lambda: ConstantLatency(0.0))
    loss: float = 0.0
    duplicate: float = 0.0
    jitter_reorder: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1), got {self.loss}")
        if not 0.0 <= self.duplicate <= 1.0:
            raise ValueError(f"duplicate must be in [0, 1], got {self.duplicate}")


class Link:
    """A directed link instance with its own RNG stream and FIFO state."""

    __slots__ = ("spec", "_rng", "_last_arrival")

    def __init__(self, spec: LinkSpec, rng: random.Random) -> None:
        self.spec = spec
        self._rng = rng
        self._last_arrival = 0.0  # absolute time of the latest arrival handed out

    def delays(self, depart: float) -> tuple[float, ...]:
        """Sample delivery delays (relative to ``depart``) for one message.

        ``()`` means the copy was dropped; two entries mean duplication.
        """
        spec = self.spec
        if spec.loss and self._rng.random() < spec.loss:
            return ()
        # The first copy is ``_sample_one`` in place (one frame less per
        # message): same draws, same float operations in the same order.
        first = spec.latency.sample(self._rng)
        if not spec.jitter_reorder:
            arrival = max(depart + first, self._last_arrival)
            self._last_arrival = arrival
            first = arrival - depart
        if spec.duplicate and self._rng.random() < spec.duplicate:
            return (first, self._sample_one(depart))
        return (first,)

    def _sample_one(self, depart: float) -> float:
        delay = self.spec.latency.sample(self._rng)
        if not self.spec.jitter_reorder:
            # FIFO (TCP-like): a message may not overtake an earlier one on
            # the same link, so its arrival is clamped to the latest arrival
            # already promised.
            arrival = max(depart + delay, self._last_arrival)
            self._last_arrival = arrival
            delay = arrival - depart
        return delay
