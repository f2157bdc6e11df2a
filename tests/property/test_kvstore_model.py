"""Model-based property tests: KVStoreService against a plain dict."""

from __future__ import annotations

import random

from hypothesis import given, strategies as st

from repro.services.base import ExecutionContext
from repro.services.kvstore import KVStoreService

keys = st.sampled_from(["a", "b", "c", "d"])
values = st.integers(min_value=0, max_value=9)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), keys, values),
        st.tuples(st.just("delete"), keys),
        st.tuples(st.just("get"), keys),
        st.tuples(st.just("cas"), keys, values, values),
    ),
    max_size=60,
)


def ctx():
    return ExecutionContext(rng=random.Random(0), now=0.0)


def model_apply(model: dict, op):
    kind = op[0]
    if kind == "put":
        prev = model.get(op[1])
        model[op[1]] = op[2]
        return prev
    if kind == "delete":
        return model.pop(op[1], None)
    if kind == "get":
        return model.get(op[1])
    if kind == "cas":
        if model.get(op[1]) == op[2]:
            model[op[1]] = op[3]
            return True
        return False
    raise AssertionError(op)


@given(ops=operations)
def test_matches_dict_model(ops):
    service = KVStoreService()
    model: dict = {}
    for op in ops:
        reply = service.execute(op, ctx()).reply
        expected = model_apply(model, op)
        assert reply == expected
        assert service.data == model


@given(ops=operations)
def test_delta_stream_replicates(ops):
    leader, backup = KVStoreService(), KVStoreService()
    for op in ops:
        result = leader.execute(op, ctx())
        if result.delta is not None:
            backup.apply_delta(result.delta)
    assert backup.data == leader.data


@given(ops=operations)
def test_snapshot_restore_identity(ops):
    service = KVStoreService()
    for op in ops:
        service.execute(op, ctx())
    clone = KVStoreService()
    clone.restore(service.snapshot())
    assert clone.data == service.data
    assert clone.state_fingerprint() == service.state_fingerprint()
