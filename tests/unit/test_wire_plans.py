"""The compiled pack / unpack plans (``repro.util.fastpickle``) and the
frames ``repro.transport.codec`` builds on them.

Every wire class round-trips — as a TCP frame, through plain pickle (the
``__reduce__`` path) and inside a WAL record — with exact types at every
depth, whatever its fields hold; a damaged packed frame raises before a
message exists; and what a decoder yields is what was sent or an exception,
never another message.
"""

from __future__ import annotations

import dataclasses
import pickle
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ballot import Ballot
from repro.core.messages import (
    AcceptBatch,
    AcceptedBatch,
    ChosenBatch,
    GroupEnvelope,
    Reply,
    StartSignal,
)
from repro.core.requests import ClientRequest
from repro.election.omega import Heartbeat
from repro.storage import wal
from repro.storage.wal import WalRecord
from repro.transport.codec import FrameDecoder, decode_frames, encode_frame, wire_size
from repro.types import ReplyStatus
from repro.util.fastpickle import fast_pickle, pack, unpack
from tests.unit.test_wire_size import (
    GOLDEN,
    anything,
    ballot,
    hint_violations,
    pn,
    proposal,
    request,
    rid,
    sized_classes,
)

REPO = Path(__file__).resolve().parents[2]


class PlainSubclass(Ballot):
    """Not registered: the plan of ``Ballot`` must not pack it as one."""


def shape(value):
    """The exact type at every depth of ``value``."""
    cls = type(value)
    if dataclasses.is_dataclass(value):
        return cls, [shape(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if cls in (tuple, list, set, frozenset):
        return cls, [shape(item) for item in value]
    if cls is dict:
        return cls, [(shape(k), shape(v)) for k, v in value.items()]
    return cls


def assert_round_trips(message) -> None:
    """As a frame, as a bare pickle and inside a WAL record."""
    for sent in (("r0", message), message):
        (got,) = decode_frames(encode_frame(sent))
        assert got == sent and shape(got) == shape(sent)
    clone = pickle.loads(pickle.dumps(message))
    assert clone == message and shape(clone) == shape(message)
    record = WalRecord("accept", (pn(), message), 3)
    records, _consumed, status = wal.decode_frames(wal.encode_frame(record))
    assert status == "ok" and records == [record]
    assert shape(records[0].payload) == shape(record.payload)


def odd_values() -> list:
    """What the hints did not promise, beyond ``hint_violations()``."""
    return [
        AcceptedBatch(PlainSubclass(3, "r1"), (5,)),        # a subclass instance
        PlainSubclass(3, "r1"),
        Reply(None, None, None, None),                      # None where not optional
        Reply(rid(), 1, None, None),                        # an int where an enum
        Reply(rid(), [ReplyStatus.OK], proposal(), "r0"),   # a dataclass in an Any field
        GroupEnvelope(0, AcceptBatch(ballot(), ((5, proposal()),))),
        GroupEnvelope(0, GroupEnvelope(1, request())),
        ClientRequest(rid(), True, ("put", "k", request())),
        ChosenBatch([(5, proposal())], (3, "r1")),          # plain tuples where dataclasses
        ChosenBatch(((5, proposal()), [6, proposal()], (7, None)), ballot()),
    ]


class TestRoundTrip:
    def test_every_wire_class(self):
        for _cls, make in sized_classes().items():
            assert_round_trips(make())

    def test_values_the_hints_did_not_promise(self):
        for message in hint_violations() + odd_values():
            assert_round_trips(message)

    def test_unregistered_and_plain_objects(self):
        for message in (Heartbeat("r0", None), {"a": 1}, [3], "two", 1, None, ("x", 1, 2)):
            for sent in (("r0", message), message):
                assert decode_frames(encode_frame(sent)) == [sent]

    def test_a_copy_starts_without_the_kept_size(self):
        sized = request()
        wire_size(sized)
        (_src, clone), = decode_frames(encode_frame(("r0", sized)))
        assert clone == sized and getattr(clone, "_wire_size", None) is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_field_values(self, data):
        classes = sorted(sized_classes(), key=lambda cls: cls.__name__)
        cls = data.draw(st.sampled_from(classes))
        count = len(dataclasses.fields(cls))
        message = cls(*data.draw(st.lists(anything, min_size=count, max_size=count)))
        (got,) = decode_frames(encode_frame(("r0", message)))
        assert got == ("r0", message) and shape(got[1]) == shape(message)
        clone = pickle.loads(pickle.dumps(message))
        assert clone == message and shape(clone) == shape(message)

    @pytest.mark.parametrize(
        "prelude",
        [
            "import repro.election, repro.shard\n"
            "import repro.core.messages\n"
            "from repro.transport import codec as decoder\n",
            "from repro.transport import codec as decoder\n",
            "from repro.storage import wal as decoder\n",
        ],
        ids=["messages-imported-last", "codec-only", "wal-only"],
    )
    def test_tags_do_not_depend_on_import_order(self, prelude):
        """Frames written here decode in an interpreter that imported the
        message modules last — or only the TCP codec, or only the WAL, so
        that nothing but decoding registers the wire classes — and it writes
        the same bytes back."""
        messages = [("r0", make()) for make, _size in GOLDEN.values()]
        if "wal" in prelude:
            frames = b"".join(wal.encode_frame(WalRecord("accept", pair)) for pair in messages)
        else:
            frames = b"".join(encode_frame(pair) for pair in messages)
        script = (
            "import sys\n"
            f"{prelude}"
            "decoded = decoder.decode_frames(sys.stdin.buffer.read())\n"
            "items = decoded[0] if type(decoded) is tuple else decoded\n"
            "sys.stdout.buffer.write(b''.join(decoder.encode_frame(item) for item in items))\n"
            "print(repr([getattr(item, 'payload', item) for item in items]), file=sys.stderr)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=frames,
            capture_output=True,
            timeout=60,
            env={"PYTHONPATH": str(REPO / "src"), "PYTHONHASHSEED": "7"},
        )
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == frames
        assert done.stderr.decode().strip() == repr(messages)


class TestRegistry:
    def test_a_second_class_of_the_same_name_is_refused(self):
        with pytest.raises(TypeError, match="Ballot"):

            @fast_pickle
            @dataclass(frozen=True, slots=True)
            class Ballot:  # noqa: F811 - the clash is the point
                round: int

    def test_only_dataclasses(self):
        with pytest.raises(TypeError):
            fast_pickle(int)

    def test_pack_is_for_exactly_the_registered_type(self):
        assert pack(Ballot(3, "r1")) == ("Ballot", (3, "r1"))
        assert pack(PlainSubclass(3, "r1")) is None
        assert pack(Heartbeat("r0")) is None and pack(7) is None

    def test_typed_positions_carry_no_tag(self):
        tag, fields = pack(Reply(rid(), ReplyStatus.ABORTED, None, "r0"))
        assert (tag, fields) == ("Reply", (("c0", 7), 1, None, "r0"))
        tag, fields = pack(AcceptedBatch(ballot(), (5, 6)))
        assert (tag, fields) == ("AcceptedBatch", ((3, "r1"), (5, 6)))


def packed_frame(body) -> bytes:
    """A frame marked as carrying packed fields whose body pickles ``body``:
    what a sender writes when ``body`` is ``(src, tag, fields)``."""
    mark = encode_frame(("r0", StartSignal()))[4:5]
    payload = mark + pickle.dumps(body, protocol=pickle.HIGHEST_PROTOCOL)
    return len(payload).to_bytes(4, "big") + payload


#: Packed frames no sender writes, by what is wrong with them.
DAMAGED = {
    "unknown-tag": packed_frame(("r0", "NoSuchMessage", ("x",))),
    "short-fields": packed_frame(("r0", "AcceptedBatch", ((3, "r1"),))),
    "extra-fields": packed_frame(("r0", "AcceptedBatch", ((3, "r1"), (5,), 9))),
    "bad-enum-ordinal": packed_frame(("r0", "Reply", (("c0", 7), 4, None, "r0"))),
    "negative-enum-ordinal": packed_frame(("r0", "Reply", (("c0", 7), -1, None, "r0"))),
    "nested-short-fields": packed_frame(("r0", "AcceptedBatch", ((3,), (5,)))),
    "str-where-a-ballot": packed_frame(("r0", "AcceptedBatch", ("ab", (5,)))),
    "fields-in-a-list": packed_frame(("r0", "AcceptedBatch", [(3, "r1"), (5,)])),
    "no-fields": packed_frame(("r0", "AcceptedBatch")),
    "unhashable-tag": packed_frame(("r0", ["AcceptedBatch"], ())),
}


class TestDamagedFrames:
    def test_the_control_frame_is_a_good_one(self):
        frame = packed_frame(("r0", "AcceptedBatch", ((3, "r1"), (5, 6))))
        assert frame == encode_frame(("r0", AcceptedBatch(ballot(), (5, 6))))

    @pytest.mark.parametrize("frame", DAMAGED.values(), ids=DAMAGED.keys())
    def test_rejected_before_a_message_exists(self, frame):
        with pytest.raises((pickle.UnpicklingError, ValueError, TypeError)):
            decode_frames(frame)

    def test_unpack_names_what_is_wrong(self):
        with pytest.raises(pickle.UnpicklingError, match="unknown message tag 'Nope'"):
            unpack("Nope", ())
        with pytest.raises(pickle.UnpicklingError, match="AcceptedBatch takes a tuple of 2"):
            unpack("AcceptedBatch", ((3, "r1"),))
        with pytest.raises(pickle.UnpicklingError, match="ordinal 9"):
            unpack("Reply", (("c0", 7), 9, None, None))


# ------------------------------------------------ a stream is what was sent
wire_messages = st.one_of(
    st.sampled_from(sorted(GOLDEN, key=lambda cls: cls.__name__)).map(
        lambda cls: GOLDEN[cls][0]()
    ),
    st.sampled_from(hint_violations() + odd_values()),
    anything,
)


class TestStreams:
    @settings(max_examples=200, deadline=None)
    @given(
        messages=st.lists(wire_messages, max_size=6),
        cuts=st.lists(st.integers(0, 2000), max_size=8),
        garbage=st.binary(max_size=12),
    )
    def test_sent_messages_or_an_exception_never_another_message(
        self, messages, cuts, garbage
    ):
        sent = [("r0", message) for message in messages]
        stream = b"".join(encode_frame(pair) for pair in sent) + garbage
        edges = sorted({0, len(stream), *(cut % (len(stream) + 1) for cut in cuts)})
        decoder = FrameDecoder()
        got = []
        try:
            for start, end in zip(edges, edges[1:]):
                got.extend(decoder.feed(stream[start:end]))
        except Exception:
            assert garbage  # only what no sender wrote can fail to decode
        # Every sent message arrives, in order and unchanged, before anything
        # the garbage may have spelled.
        assert got[: len(sent)] == sent
        assert [shape(pair) for pair in got[: len(sent)]] == [shape(pair) for pair in sent]
        if not garbage:
            assert len(got) == len(sent) and decoder.pending_bytes == 0


class TestFrameSizes:
    #: The messages of one write in the steady state (Fig. 2).
    STEADY = (ClientRequest, AcceptBatch, AcceptedBatch, ChosenBatch, Reply)

    def test_real_frames_against_the_simulators_byte_model(self):
        """``wire_size`` models "a compact binary encoding"; this is the
        first check of it against bytes a real transport writes. A frame
        spends 24 bytes before its first field (length, mark, pickle's
        PROTO / FRAME / STOP, the sender, the outer tuple) plus the class
        name, so the ratio is bounded for the messages a write is made of
        and the excess for all of them."""
        for cls, (make, modelled) in GOLDEN.items():
            real = len(encode_frame(("r0", make())))
            if cls in self.STEADY:
                assert real <= 1.6 * modelled, cls.__name__
            # GroupEnvelope's payload is an ``Any`` field: it travels through
            # ``__reduce__`` and names ``unpack`` and its own class as well.
            assert real - modelled <= (64 if cls is GroupEnvelope else 36), cls.__name__
