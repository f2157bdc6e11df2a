"""Property tests: the commit-tracking fold against a plain set model.

:class:`repro.storage.store.RidFold` stands in for the set of request ids a
checkpoint covers. Under any mix of the operations a store performs —
chosen batches arriving (several clients; seqs repeated, out of order and
with gaps), a checkpoint built from the previous one plus the batches
since, a union with another replica's fold — it must answer every
membership query exactly as a ``frozenset`` of the same rids does.
"""

from __future__ import annotations

import pickle

from hypothesis import given, strategies as st

from repro.core.requests import RequestId
from repro.storage.store import RidFold
from repro.transport import codec
from repro.util.fastpickle import pack

CLIENTS = ("c0", "c1", "c2")
MAX_SEQ = 24

rid = st.builds(
    RequestId, st.sampled_from(CLIENTS), st.integers(min_value=0, max_value=MAX_SEQ)
)
batch = st.lists(rid, max_size=8)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("chosen"), batch),
        st.tuples(st.just("checkpoint"), st.just([])),
        st.tuples(st.just("union"), batch),
    ),
    max_size=40,
)


def fold_of(rids: frozenset[RequestId]) -> RidFold:
    return RidFold().add(rids)


def assert_same(fold: RidFold, model: frozenset[RequestId]) -> None:
    for client in (*CLIENTS, "c9"):
        for seq in range(-1, MAX_SEQ + 2):
            query = RequestId(client, seq)
            assert (query in fold) == (query in model), query
    # Canonical: sorted clients, sorted runs that neither touch nor overlap.
    clients = [client for client, _spans in fold.runs]
    assert clients == sorted(set(clients))
    for _client, spans in fold.runs:
        assert spans and all(lo <= hi for lo, hi in spans)
        assert all(a[1] + 1 < b[0] for a, b in zip(spans, spans[1:]))


@given(sequence=ops)
def test_fold_answers_like_a_set(sequence):
    checkpoint, checkpoint_model = RidFold(), frozenset()
    pending: list[RequestId] = []  # chosen since the last checkpoint
    for kind, rids in sequence:
        if kind == "chosen":
            pending.extend(rids)
        elif kind == "checkpoint":
            checkpoint = checkpoint.add(pending)
            checkpoint_model |= frozenset(pending)
            pending = []
        else:
            checkpoint = checkpoint | fold_of(frozenset(rids))
            checkpoint_model |= frozenset(rids)
        assert_same(checkpoint, checkpoint_model)
        # A live fold (the one a Promise ships) is the checkpoint + pending.
        assert_same(checkpoint.add(pending), checkpoint_model | frozenset(pending))
    assert checkpoint == fold_of(checkpoint_model)


@given(left=batch, right=batch)
def test_union_is_commutative_and_matches_the_model(left, right):
    a, b = fold_of(frozenset(left)), fold_of(frozenset(right))
    assert a | b == b | a == fold_of(frozenset(left) | frozenset(right))
    assert_same(a | b, frozenset(left) | frozenset(right))


@given(rids=batch)
def test_fold_is_wire_safe(rids):
    fold = fold_of(frozenset(rids))
    assert pack(fold) is not None  # a compiled plan, not the pickle fallback
    assert pickle.loads(pickle.dumps(fold)) == fold
    # Sized by the sizer compiled from the dataclass, as messages are.
    assert codec.wire_size(fold) > 0 and RidFold in codec._SIZERS
