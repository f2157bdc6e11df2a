"""Fuzz of the WAL frame decoder, :func:`repro.storage.wal.decode_frames`.

Recovery acts on the decoder's verdict: ``ok`` replays every record,
``torn`` truncates the log at ``consumed``, ``corrupt`` fail-stops. A
stream of real ``accept`` / ``choose`` / ``promise`` / ``round`` records is
damaged the ways a device damages one — cut at any offset, any one bit
flipped, a few bytes written twice, bytes appended after the tail — and
the verdict is checked against what was written:

* no outcome yields a record that was not written at that position, and
  ``consumed`` is the frame boundary after the last record returned;
* ``ok`` means the whole damaged stream was read, so it returns exactly
  the records written into it;
* ``corrupt`` is reported exactly when an intact written frame follows the
  bad one; otherwise the bad frame is a torn tail and truncating it loses
  nothing that was written after it.

Bytes written twice never span a whole frame: CRC framing carries no
position, so a copy of whole frames is a well-formed log of records that
were written elsewhere.
"""

from __future__ import annotations

import bisect
import itertools

from hypothesis import example, given, settings, strategies as st

from repro.core.ballot import Ballot, ProposalNumber
from repro.core.messages import Proposal
from repro.core.requests import ClientRequest, RequestId
from repro.core.state import StatePayload
from repro.storage.wal import HEADER_SIZE, WalRecord, decode_frames, encode_frame
from repro.types import RequestKind, StateTransferMode

pids = st.sampled_from(("r0", "r1", "r2"))
ballots = st.builds(Ballot, st.integers(0, 50), pids)
instances = st.integers(1, 10_000)
requests = st.builds(
    ClientRequest,
    st.builds(RequestId, st.sampled_from(("c0", "c1")), st.integers(0, 10_000)),
    st.sampled_from(RequestKind),
    st.tuples(st.just("put"), st.integers(0, 99), st.integers()),
)
proposals = st.builds(
    Proposal,
    st.lists(requests, min_size=1, max_size=3).map(tuple),
    st.builds(StatePayload, st.sampled_from(StateTransferMode), st.none()),
)
groups = st.integers(0, 3)
records = st.one_of(
    st.builds(
        WalRecord,
        st.just("accept"),
        st.tuples(st.builds(ProposalNumber, ballots, instances), proposals),
        groups,
    ),
    st.builds(WalRecord, st.just("choose"), st.tuples(instances, proposals), groups),
    st.builds(WalRecord, st.just("promise"), ballots, groups),
    st.builds(WalRecord, st.just("round"), st.integers(0, 2**31), groups),
)
streams = st.lists(records, min_size=1, max_size=6)


def frames_of(written: list[WalRecord]) -> tuple[list[bytes], list[int]]:
    """Each record's frame, and the frame boundaries of their stream."""
    frames = [encode_frame(record) for record in written]
    return frames, list(itertools.accumulate(map(len, frames), initial=0))


def decode_checked(written: list[WalRecord], damaged: bytes) -> tuple[int, str]:
    """Decode ``damaged``, assert the properties every outcome has, and
    return how many records came back and the status."""
    frames, bounds = frames_of(written)
    decoded, consumed, status = decode_frames(damaged)
    n = len(decoded)
    assert decoded == written[:n]
    assert consumed == bounds[n]
    assert status in ("ok", "torn", "corrupt")
    if status == "ok":
        assert consumed == len(damaged)
    follows = any(frame in damaged[consumed + 1 :] for frame in frames[n:])
    assert (status == "corrupt") == follows
    return n, status


@settings(max_examples=200, deadline=None)
@given(written=streams, data=st.data())
def test_a_cut_at_any_offset(written, data):
    frames, bounds = frames_of(written)
    cut = data.draw(st.integers(0, bounds[-1]))
    n, status = decode_checked(written, b"".join(frames)[:cut])
    # Every frame wholly before the cut comes back; the cut one is torn.
    assert n == bisect.bisect_right(bounds, cut) - 1
    assert status == ("ok" if cut in bounds else "torn")


@settings(max_examples=200, deadline=None)
@given(written=streams, data=st.data())
def test_a_flip_of_any_one_bit(written, data):
    frames, bounds = frames_of(written)
    damaged = bytearray(b"".join(frames))
    bit = data.draw(st.integers(0, 8 * len(damaged) - 1))
    damaged[bit // 8] ^= 1 << (bit % 8)
    n, status = decode_checked(written, bytes(damaged))
    # The flipped frame is the first bad one; every frame after it is intact.
    hit = bisect.bisect_right(bounds, bit // 8) - 1
    assert n == hit
    assert status == ("corrupt" if hit < len(written) - 1 else "torn")


@settings(max_examples=200, deadline=None)
@given(written=streams, data=st.data())
def test_bytes_written_twice(written, data):
    stream = b"".join(frames_of(written)[0])
    at = data.draw(st.integers(0, len(stream) - 1))
    size = data.draw(st.integers(1, HEADER_SIZE))  # shorter than any frame
    _n, status = decode_checked(written, stream[:at] + stream[at : at + size] + stream[at:])
    assert status != "ok"


@settings(max_examples=200, deadline=None)
# Shrunk: eight zero bytes read as a frame with an empty body and a matching
# CRC (crc32(b"") == 0), and decoding raised EOFError instead of "torn".
@example(written=[WalRecord("round", 10, 0)], tail=bytes(8))
@given(
    written=streams,
    # Garbage, or the zeros of a file extended and never written.
    tail=st.one_of(st.binary(min_size=1, max_size=64), st.integers(1, 64).map(bytes)),
)
def test_bytes_appended_after_the_tail(written, tail):
    n, status = decode_checked(written, b"".join(frames_of(written)[0]) + tail)
    assert (n, status) == (len(written), "torn")
