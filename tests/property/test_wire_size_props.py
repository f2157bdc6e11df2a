"""Property tests for the wire-size model.

Byte accounting feeds ``total_bytes`` into results that must be identical
for any worker count and message order, so a size may depend on nothing
but the message's content — in particular not on whether a carrier inside
it has already been sized.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from repro.core.ballot import Ballot
from repro.core.messages import AcceptBatch, ChosenBatch, Proposal
from repro.core.requests import ClientRequest, RequestId
from repro.core.state import StatePayload
from repro.transport.codec import wire_size
from repro.types import RequestKind, StateTransferMode

leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.sampled_from(RequestKind),
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=12,
)
pids = st.text(alphabet="abcrc0123456789", min_size=1, max_size=4)
ballots = st.builds(Ballot, st.integers(0, 50), pids)
requests = st.builds(
    ClientRequest,
    st.builds(RequestId, pids, st.integers(0, 10_000)),
    st.sampled_from(RequestKind),
    values,
    st.one_of(st.none(), st.text(max_size=8)),
    st.integers(0, 5),
)
proposals = st.builds(
    Proposal,
    st.lists(requests, min_size=1, max_size=3).map(tuple),
    st.builds(StatePayload, st.sampled_from(StateTransferMode), values),
    values,
)
entry_lists = st.lists(st.tuples(st.integers(1, 10_000), proposals), max_size=5)


def fresh(message):
    """An equal message none of whose parts has been sized yet."""
    return pickle.loads(pickle.dumps(message))


@settings(max_examples=150, deadline=None)
@given(ballot=ballots, entries=entry_lists)
def test_size_is_a_pure_function_of_content(ballot, entries):
    message = AcceptBatch(ballot, tuple(entries))
    cold = wire_size(message)
    # Warm: every carrier inside now keeps its size.
    assert wire_size(message) == cold
    # Cleared: an equal message built from scratch.
    assert wire_size(fresh(message)) == cold
    # Partly warm: only some inner carriers sized beforehand, in any order.
    partly = fresh(message)
    for _instance, proposal in reversed(partly.entries[::2]):
        wire_size(proposal.requests[-1])
        wire_size(proposal)
    assert wire_size(partly) == cold


@settings(max_examples=150, deadline=None)
@given(ballot=ballots, entries=entry_lists)
def test_batches_are_additive_over_their_entries(ballot, entries):
    empty = wire_size(AcceptBatch(ballot, ()))
    per_entry = [
        wire_size(AcceptBatch(ballot, (entry,))) - empty for entry in entries
    ]
    assert wire_size(AcceptBatch(ballot, tuple(entries))) == empty + sum(per_entry)
    chosen_empty = wire_size(ChosenBatch((), ballot))
    assert wire_size(ChosenBatch(tuple(entries), ballot)) == chosen_empty + sum(per_entry)


@settings(max_examples=100, deadline=None)
@given(ballot=ballots, entries=entry_lists.filter(bool))
def test_one_more_entry_is_strictly_larger(ballot, entries):
    sizes = [
        wire_size(AcceptBatch(ballot, tuple(entries[:n]))) for n in range(len(entries) + 1)
    ]
    assert sizes == sorted(set(sizes))


@settings(max_examples=150, deadline=None)
@given(value=values)
def test_any_payload_gets_a_positive_repeatable_size(value):
    size = wire_size(value)
    assert size > 4
    assert wire_size(fresh(value)) == size
    assert wire_size((value,)) == size + 5
