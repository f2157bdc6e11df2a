"""Model-based property tests for the nondeterministic services: for any
random op sequence, REPRO replay and DELTA application must reproduce the
leader's state exactly."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.services.base import ExecutionContext
from repro.services.broker import ResourceBrokerService
from repro.services.gridsched import GridSchedulerService

# --------------------------------------------------------------------- broker
broker_ops = st.lists(
    st.one_of(
        st.tuples(st.just("request"), st.integers(0, 30), st.integers(1, 40)),
        st.tuples(st.just("release"), st.integers(0, 30)),
    ),
    max_size=40,
)


def fresh_broker() -> ResourceBrokerService:
    service = ResourceBrokerService()
    for i in range(4):
        service.resources[f"n{i}"] = [100.0, 0.0]
    return service


def broker_op(raw):
    if raw[0] == "request":
        return ("request", f"t{raw[1]}", raw[2])
    return ("release", f"t{raw[1]}")


@settings(max_examples=60)
@given(ops=broker_ops, seed=st.integers(0, 10_000))
def test_broker_repro_replay_equivalence(ops, seed):
    leader, backup = fresh_broker(), fresh_broker()
    rng = random.Random(seed)
    for raw in ops:
        op = broker_op(raw)
        try:
            result = leader.execute(op, ExecutionContext(rng=rng, now=0.0))
        except Exception:
            continue  # duplicate task etc.: leader rejects, nothing shipped
        backup.replay(op, result.repro)
        assert backup.state_fingerprint() == leader.state_fingerprint()


@settings(max_examples=60)
@given(ops=broker_ops, seed=st.integers(0, 10_000))
def test_broker_delta_equivalence(ops, seed):
    leader, backup = fresh_broker(), fresh_broker()
    rng = random.Random(seed)
    for raw in ops:
        op = broker_op(raw)
        try:
            result = leader.execute(op, ExecutionContext(rng=rng, now=0.0))
        except Exception:
            continue
        if result.delta is not None:
            backup.apply_delta(result.delta)
    assert backup.state_fingerprint() == leader.state_fingerprint()


# ----------------------------------------------------------------- gridsched
sched_ops = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 20), st.integers(0, 5)),
        st.tuples(st.just("dispatch")),
    ),
    max_size=40,
)


def sched_op(raw):
    if raw[0] == "submit":
        return ("submit", f"j{raw[1]}", raw[2])
    return ("dispatch",)


@settings(max_examples=60)
@given(ops=sched_ops, times=st.lists(st.floats(0, 100), min_size=40, max_size=40))
def test_gridsched_repro_replay_equivalence(ops, times):
    leader, backup = GridSchedulerService(), GridSchedulerService()
    rng = random.Random(0)
    for raw, now in zip(ops, times):
        op = sched_op(raw)
        try:
            result = leader.execute(op, ExecutionContext(rng=rng, now=now))
        except Exception:
            continue
        backup.replay(op, result.repro)
        assert backup.state_fingerprint() == leader.state_fingerprint()


@settings(max_examples=60)
@given(ops=sched_ops, times=st.lists(st.floats(0, 100), min_size=40, max_size=40))
def test_gridsched_delta_equivalence(ops, times):
    leader, backup = GridSchedulerService(), GridSchedulerService()
    rng = random.Random(0)
    for raw, now in zip(ops, times):
        op = sched_op(raw)
        try:
            result = leader.execute(op, ExecutionContext(rng=rng, now=now))
        except Exception:
            continue
        if result.delta is not None:
            backup.apply_delta(result.delta)
    assert backup.state_fingerprint() == leader.state_fingerprint()


@settings(max_examples=60)
@given(ops=sched_ops, times=st.lists(st.floats(0, 100), min_size=40, max_size=40))
def test_gridsched_snapshot_roundtrip(ops, times):
    service = GridSchedulerService()
    rng = random.Random(0)
    for raw, now in zip(ops, times):
        try:
            service.execute(sched_op(raw), ExecutionContext(rng=rng, now=now))
        except Exception:
            continue
    clone = GridSchedulerService()
    clone.restore(service.snapshot())
    assert clone.state_fingerprint() == service.state_fingerprint()
    # Both copies make the same next decision.
    a = clone.execute(("dispatch",), ExecutionContext(rng=rng, now=1000.0)).reply
    b = service.execute(("dispatch",), ExecutionContext(rng=rng, now=1000.0)).reply
    assert a == b
