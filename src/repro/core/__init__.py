"""The paper's contribution: Paxos-based replication of nondeterministic
services, with the X-Paxos read and T-Paxos transaction optimizations.

Module map (paper section in parentheses):

* :mod:`repro.core.ballot` — ballot and proposal numbers (§3.2/§3.3).
* :mod:`repro.core.requests` — client requests and at-most-once dedup.
* :mod:`repro.core.messages` — the wire protocol.
* :mod:`repro.core.state` — FULL / DELTA / REPRO state transfer (§3.3).
* :mod:`repro.core.log` — the replica's command log (§3.3).
* :mod:`repro.core.config` — the static configuration a group's replicas share.
* :mod:`repro.core.group` — one replica of one replication group: acceptor,
  learner, leader lifecycle and client front end (§3.1-§3.3). The
  deterministic-SMR baseline of §3.3 ¶1 is its ``StateTransferMode.SMR``.
* :mod:`repro.core.round` — one leader-to-acceptors exchange: send once,
  resend to the silent, count one vote per process (the leader's own only
  once durable), stop at a majority (§3.2/§3.3). One exchange, three users:
  every pipeline round, the new leader's prepare round, and the accept
  round that closes its recovery.
* :mod:`repro.core.proposer` — the leader's sequential proposal pipeline.
* :mod:`repro.core.xpaxos` — the read path (§3.4).
* :mod:`repro.core.locks`, :mod:`repro.core.tpaxos` — transactions (§3.5).
* :mod:`repro.core.recovery` — new-leader recovery (§3.3).
* :mod:`repro.core.replica` — a group standing alone as its own process
  (bare runtimes; the simulated cluster builds :mod:`repro.shard.host`).

The §5 comparator, semi-passive replication over Chandra-Toueg consensus,
is ``examples/semipassive.py``.
"""
