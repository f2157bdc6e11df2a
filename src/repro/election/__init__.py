"""Leader election — the "underlying leader election service" of §3.1.

The paper assumes an Ω-style elector with good *leader stability* (§3.6,
citing Malkhi et al. [22]): once a leader is elected it stays leader until
it actually crashes, which is what X-Paxos and T-Paxos need ("long enough"
leader tenure). Implementations:

* :class:`repro.election.static.StaticElector` — a fixed leader, for
  failure-free benchmark runs (the paper's common case).
* :class:`repro.election.static.ManualElector` — test-controlled switches.
* :class:`repro.election.omega.OmegaElector` — heartbeat-based eventual
  leader election with the stability property.
"""
