"""The simulator's wire-size model (``repro.transport.codec.wire_size``).

Golden sizes pin the encoding rules for one instance of every wire class;
the rest pins what byte accounting relies on: the size is a pure function
of content, and keeping it on a carrier never changes it.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import pickle
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.core import ballot as ballot_module, messages, requests, state
from repro.core.ballot import Ballot, ProposalNumber
from repro.core.group import ReplicationGroup
from repro.core.messages import (
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
from repro.core.requests import ClientRequest, ExecutedTable, RequestId
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

    def test_every_wire_class_is_frozen_and_slotted(self):
        """Messages are shared by reference between simulated processes:
        ``frozen`` turns a post-send mutation into ``FrozenInstanceError``
        instead of a replica-state divergence, ``slots`` keeps a typo'd
        attribute from riding along (this replaced lint rule MSG001)."""
        for cls in sorted(wire_classes(), key=lambda c: c.__name__):
            assert cls.__dataclass_params__.frozen, cls.__name__
            assert "__slots__" in vars(cls), cls.__name__

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
        before = (len(codec._FIXED), len(codec._SIZERS))
        for seq in range(2000):
            wire_size(ClientRequest(RequestId("c0", seq), RequestKind.WRITE, ("write",)))
        assert (len(codec._FIXED), len(codec._SIZERS)) == before
        assert all(isinstance(key, type) for key in (*codec._FIXED, *codec._SIZERS))


# ------------------------------------------------- generated sizer == the rules
def reference_size(value) -> int:
    """``wire_size``'s documented encoding rules as the obvious recursion:
    the reference the compiled per-type sizers are held to. Shares no code
    with the model and keeps no sizes."""
    if value is None:
        return 1
    if isinstance(value, (bool, enum.Enum)):
        return 2
    if isinstance(value, (int, float)):
        return 9
    if isinstance(value, str):
        return 5 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return 5 + len(value)
    if isinstance(value, (tuple, list, set, frozenset)):
        return 5 + sum(reference_size(item) for item in value)
    if isinstance(value, dict):
        return 5 + sum(reference_size(k) + reference_size(v) for k, v in value.items())
    if dataclasses.is_dataclass(value):
        return 1 + sum(
            reference_size(getattr(value, field.name)) for field in dataclasses.fields(value)
        )
    return 5 + len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def field_values(obj) -> tuple:
    return tuple(getattr(obj, field.name) for field in dataclasses.fields(obj))


#: Builders for the sized dataclasses ``GOLDEN`` has no wire message for.
PARTS = {
    ProposalNumber: pn,
    StatePayload: lambda: StatePayload(StateTransferMode.DELTA, (1, None)),
    ExecutedTable: lambda: ExecutedTable({"c0": (7, "reply")}),
}


def sized_classes() -> dict[type, object]:
    """Every dataclass the protocol modules define, with a builder."""
    defined = {
        cls
        for module in (messages, requests, ballot_module, state)
        for _name, cls in inspect.getmembers(module, inspect.isclass)
        if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
    }
    builders = {**{cls: make for cls, (make, _size) in GOLDEN.items()}, **PARTS}
    assert defined <= set(builders), defined - set(builders)
    return {cls: builders[cls] for cls in defined}


leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False),
    st.text(max_size=5),  # any code point: pids and keys need not be ASCII
    st.binary(max_size=5),
    st.sampled_from([RequestKind.WRITE, ReplyStatus.ERROR, StateTransferMode.REPRO]),
    st.sampled_from([ballot, rid, request, proposal, pn]).map(lambda make: make()),
)
anything = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=2),
        st.dictionaries(st.text(max_size=2), inner, max_size=2),
    ),
    max_leaves=5,
)


def hint_violations() -> list:
    """Messages whose field values contradict the declared field types."""
    return [
        AcceptedBatch(ballot(), (5, None, "six")),          # None / str where int
        AcceptedBatch(None, [5, 6]),                        # a list where a tuple
        ClientRequest(rid(), "write", (("put", ("k", (1, 2))),), 7, None),
        ClientRequest(RequestId("né€", True), RequestKind.WRITE, None, "tx-ü", 2.5),
        Reply(rid(), ReplyStatus.OK, {"k": (1, b"x")}, 3),  # an int where a pid
        AcceptBatch(ballot(), ((5, proposal(), "extra"), (6,), 7), None, (1, 2)),
        Promise(ballot(), (PromiseEntry(pn(), proposal()), None), 4, (1, 2, 3)),
        GroupEnvelope("g", 5),
        Proposal([request()], None, proposal()),
        Ballot(2.0, None),
    ]


class TestCompiledSizers:
    def test_every_sized_class_has_a_compiled_sizer_that_follows_the_rules(self):
        for cls, make in sized_classes().items():
            obj = make()
            assert wire_size(obj) == 4 + reference_size(obj), cls.__name__
            compiled = codec._SIZERS[cls]  # registered by the first sight above
            fresh = make()
            assert compiled(fresh) == reference_size(fresh), cls.__name__
            assert compiled(fresh) == 1 + codec._sizes(field_values(make())), cls.__name__

    def test_annotations_are_hints_never_trusted(self):
        """Values that contradict the declared field types are sized by
        the generic walk, not mis-sized by the guard's constant."""
        for case in hint_violations():
            assert wire_size(case) == 4 + reference_size(case), case

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_compiled_sizer_equals_the_generic_walk_on_any_field_values(self, data):
        classes = sorted(sized_classes(), key=lambda cls: cls.__name__)
        cls = data.draw(st.sampled_from(classes))
        count = len(dataclasses.fields(cls))
        values = data.draw(st.lists(anything, min_size=count, max_size=count))
        obj = cls(*values)
        expected = reference_size(obj)
        assert wire_size(obj) == 4 + expected
        assert 1 + codec._sizes(field_values(cls(*values))) == expected
        assert wire_size(obj) == 4 + expected  # and again, from the kept size
