"""The simulator's wire-size model (``repro.transport.codec.wire_size``).

Golden sizes pin the encoding rules for one instance of every wire class;
the rest pins what byte accounting relies on: the size is a pure function
of content, and keeping it on a carrier never changes it.
"""

from __future__ import annotations

import dataclasses
import inspect
import pickle
from dataclasses import dataclass
from fractions import Fraction

from repro.core import messages
from repro.core.ballot import Ballot, ProposalNumber
from repro.core.group import ReplicationGroup
from repro.core.messages import (
    Accept,
    Accepted,
    AcceptBatch,
    AcceptedBatch,
    CatchUpInfo,
    CatchUpQuery,
    ChosenBatch,
    Confirm,
    FrontierProbe,
    GroupEnvelope,
    Nack,
    Prepare,
    Promise,
    PromiseEntry,
    Proposal,
    Reply,
    StartSignal,
)
from repro.core.requests import ClientRequest, RequestId
from repro.core.state import StatePayload
from repro.transport import codec
from repro.transport.codec import wire_size
from repro.types import ReplyStatus, RequestKind, StateTransferMode
from repro.util.fastpickle import KeepsWireSize


def ballot() -> Ballot:
    return Ballot(3, "r1")


def rid() -> RequestId:
    return RequestId("c0", 7)


def request() -> ClientRequest:
    return ClientRequest(rid(), RequestKind.WRITE, ("write",))


def proposal() -> Proposal:
    return Proposal((request(),), StatePayload(StateTransferMode.FULL, (1, b"")), 1)


def pn() -> ProposalNumber:
    return ProposalNumber(ballot(), 5)


#: One instance of every wire class and its size under the documented rules:
#: 4-byte frame header; 1-byte tag per value; int/float 8 bytes; enum/bool
#: 1 byte; str/bytes/containers a u32 length or count. E.g. ``Ballot(3,
#: "r1")`` is 4 + 1 (tag) + 9 (round) + 5 + 2 (leader) = 21, and
#: ``AcceptedBatch`` adds a tag and ``(5, 6)``: 4 + 1 + 17 + 5 + 2 * 9 = 45.
GOLDEN = {
    Ballot: (ballot, 21),
    RequestId: (rid, 21),
    ClientRequest: (request, 49),
    Proposal: (proposal, 86),
    Accept: (lambda: Accept(pn(), proposal()), 114),
    Accepted: (lambda: Accepted(pn()), 32),
    Nack: (lambda: Nack(None, ballot()), 23),
    Prepare: (lambda: Prepare(ballot(), (2, 3), 4), 54),
    PromiseEntry: (lambda: PromiseEntry(pn(), proposal()), 114),
    Promise: (lambda: Promise(ballot(), (PromiseEntry(pn(), proposal()),), 4, None), 147),
    AcceptBatch: (lambda: AcceptBatch(ballot(), ((5, proposal()), (6, proposal()))), 229),
    AcceptedBatch: (lambda: AcceptedBatch(ballot(), (5, 6)), 45),
    ChosenBatch: (lambda: ChosenBatch(((5, proposal()),), ballot()), 123),
    Confirm: (lambda: Confirm(ballot(), rid()), 39),
    Reply: (lambda: Reply(rid(), ReplyStatus.OK, 1, "r0"), 40),
    StartSignal: (StartSignal, 10),
    GroupEnvelope: (lambda: GroupEnvelope(1, AcceptedBatch(ballot(), (5, 6))), 55),
    FrontierProbe: (lambda: FrontierProbe(9, ballot()), 31),
    CatchUpQuery: (lambda: CatchUpQuery(4), 14),
    CatchUpInfo: (lambda: CatchUpInfo(((5, proposal()),)), 116),
}


def wire_classes() -> set[type]:
    """Every dataclass ``core/messages.py`` defines, plus whatever the
    dispatch registry routes — so a new message cannot ship without a size."""
    defined = {
        cls
        for _name, cls in inspect.getmembers(messages, inspect.isclass)
        if cls.__module__ == messages.__name__ and dataclasses.is_dataclass(cls)
    }
    return defined | set(ReplicationGroup.DISPATCH)


class TestGoldenSizes:
    def test_every_wire_class_has_a_golden_size(self):
        assert wire_classes() <= set(GOLDEN)

    def test_golden_sizes(self):
        measured = {cls.__name__: wire_size(make()) for cls, (make, _size) in GOLDEN.items()}
        expected = {cls.__name__: size for cls, (_make, size) in GOLDEN.items()}
        assert measured == expected

    def test_group_envelope_adds_tag_and_group_id(self):
        inner = AcceptedBatch(ballot(), (5, 6))
        assert wire_size(GroupEnvelope(1, inner)) == wire_size(inner) + 1 + 9


class TestEncodingRules:
    def test_leaves(self):
        header = 4
        assert wire_size(None) == header + 1
        assert wire_size(True) == header + 2
        assert wire_size(7) == wire_size(-(2**40)) == header + 9
        assert wire_size(0.5) == header + 9
        assert wire_size(RequestKind.READ) == header + 2
        assert wire_size("abc") == header + 5 + 3
        assert wire_size("né") == header + 5 + 3  # UTF-8 bytes, not characters
        assert wire_size(b"\x00" * 10) == header + 5 + 10

    def test_containers_carry_a_count_and_their_elements(self):
        header = 4
        assert wire_size(()) == header + 5
        assert wire_size((1, "a")) == header + 5 + 9 + 6
        assert wire_size([1, "a"]) == wire_size((1, "a"))
        assert wire_size({"a": 1}) == header + 5 + 6 + 9
        assert wire_size({"a", "b"}) == wire_size(frozenset({"a", "b"})) == header + 5 + 12

    def test_unknown_leaf_type_still_gets_a_size(self):
        leaf = Fraction(1, 3)
        assert wire_size(leaf) == 4 + 5 + len(pickle.dumps(leaf, protocol=pickle.HIGHEST_PROTOCOL))
        assert wire_size((leaf, 1)) == wire_size(leaf) + 5 + 9

    def test_plain_dataclass_without_fast_pickle(self):
        @dataclass
        class Point:
            x: int
            label: str

        @dataclass
        class Empty:
            pass

        assert wire_size(Point(1, "ab")) == 4 + 1 + 9 + 7
        assert wire_size(Empty()) == 4 + 1


class TestKeptSizes:
    def test_carriers_keep_their_size(self):
        for make in (ballot, request, proposal):
            value = make()
            assert isinstance(value, KeepsWireSize)
            assert getattr(value, "_wire_size", None) is None
            cold = wire_size(value)
            assert value._wire_size == cold - 4
            assert wire_size(value) == cold == wire_size(make())

    def test_kept_size_is_not_part_of_the_value(self):
        sized, fresh = request(), request()
        wire_size(sized)
        assert sized == fresh and hash(sized) == hash(fresh) and repr(sized) == repr(fresh)
        assert pickle.dumps(sized) == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(sized))
        assert getattr(clone, "_wire_size", None) is None
        changed = dataclasses.replace(sized, txn_seq=1)
        assert getattr(changed, "_wire_size", None) is None

    def test_size_does_not_depend_on_what_was_sized_before(self):
        batch = AcceptBatch(ballot(), ((5, proposal()),))
        warmed = AcceptBatch(ballot(), ((5, proposal()),))
        wire_size(warmed.entries[0][1].requests[0])
        wire_size(warmed.entries[0][1])
        assert wire_size(batch) == wire_size(warmed) == wire_size(batch)

    def test_the_model_keeps_no_per_message_state(self):
        """Sizes live on the carriers; the module only remembers *types*
        (so nothing outlives a cluster or grows with the traffic)."""
        wire_size(request())  # first sight registers the types involved
        before = (len(codec._FIXED), len(codec._DATACLASSES))
        for seq in range(2000):
            wire_size(ClientRequest(RequestId("c0", seq), RequestKind.WRITE, ("write",)))
        assert (len(codec._FIXED), len(codec._DATACLASSES)) == before
        assert all(isinstance(key, type) for key in (*codec._FIXED, *codec._DATACLASSES))
