"""Application services replicated by the protocols.

* :mod:`repro.services.base` — the :class:`Service` contract.
* :mod:`repro.services.noop` — the paper's empty-method benchmark service.
* :mod:`repro.services.kvstore` — a key-value store (deterministic).
* :mod:`repro.services.counter` — a counter with a nondeterministic jitter op.
* :mod:`repro.services.broker` — the randomized grid resource broker (§2).
* :mod:`repro.services.gridsched` — the FCFS-with-priority grid scheduler (§2).
* :mod:`repro.services.bank` — transactional accounts for T-Paxos examples.
"""
