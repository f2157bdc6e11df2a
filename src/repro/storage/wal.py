"""Write-ahead-log record framing for the simulated stable storage.

Every stable-state mutation a replica makes (accepted proposal, chosen
value, promised ballot, observed round) becomes one :class:`WalRecord`
appended to the device. On the wire — and on the simulated platter — a
record is a CRC-framed blob::

    <u32 length> <u32 crc32(body)> <body = pickle((kind, payload, group))>

in which every message dataclass of the payload (the ``ProposalNumber`` and
``Proposal`` of an accept) pickles as ``(unpack, (tag, packed fields))`` —
one call of its compiled plan (:mod:`repro.util.fastpickle`), not a state
dict per nested object.

Framing matters for exactly one reason: crash recovery. A torn tail (the
record being written when power died) decodes as a truncated or
CRC-mismatching final frame, which replay silently drops — a torn record
was by construction never fsync-acknowledged, so nothing acked is lost. A
CRC mismatch *before* the tail means the medium itself corrupted an
already-synced record; that is not recoverable by truncation and replay
refuses to proceed (see :meth:`repro.storage.device.SimDisk.replay`).

Records keep their payload as live object references and only materialize
bytes on demand (:func:`encode_frame`): the simulator's hot path appends
thousands of records per run and must not pay a pickle per accept. The
byte form exists for fault injection (flipping a real bit of a real frame)
and for the framing unit tests.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import Any

#: Record kinds, in the order they were introduced. ``accept`` and
#: ``choose`` carry ``(pn_or_instance, Proposal)`` payloads; ``promise``
#: carries a Ballot; ``round`` an int.
RECORD_KINDS = ("accept", "choose", "promise", "round")

_HEADER = struct.Struct("<II")
HEADER_SIZE = _HEADER.size


@dataclass(slots=True)
class WalRecord:
    """One logical WAL record (payload held by reference, encoded lazily).

    ``group`` namespaces the record when several replication groups share
    one device (a sharded process writes every group's records into the
    same WAL); single-group stores leave it at 0.
    """

    kind: str
    payload: Any
    group: int = 0

    def encode_body(self) -> bytes:
        return pickle.dumps(
            (self.kind, self.payload, self.group), protocol=pickle.HIGHEST_PROTOCOL
        )


def encode_frame(record: WalRecord) -> bytes:
    """The on-disk byte form: length + crc32 header, then the body."""
    body = record.encode_body()
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_frames(data: bytes) -> tuple[list[WalRecord], int, str]:
    """Decode frames from ``data``; returns ``(records, consumed, status)``.

    ``status`` is ``"ok"`` when the byte stream ends exactly on a frame
    boundary, ``"torn"`` when the final frame is truncated or fails its
    CRC (the classic torn tail — callers truncate at ``consumed``), and
    ``"corrupt"`` when a *non-final* frame fails its CRC, which means a
    synced record rotted and truncation would silently drop acked data.
    """
    records: list[WalRecord] = []
    offset = 0
    bad_at: int | None = None
    while offset < len(data):
        if offset + HEADER_SIZE > len(data):
            bad_at = offset
            break
        length, crc = _HEADER.unpack_from(data, offset)
        body = data[offset + HEADER_SIZE : offset + HEADER_SIZE + length]
        # No record has an empty body, and eight zero bytes (a zero-filled
        # tail) would pass the CRC check: crc32(b"") is 0.
        if not length or len(body) < length or zlib.crc32(body) != crc:
            bad_at = offset
            break
        decoded = pickle.loads(body)
        kind, payload = decoded[0], decoded[1]
        group = decoded[2] if len(decoded) > 2 else 0
        records.append(WalRecord(kind, payload, group))
        offset += HEADER_SIZE + length
    if bad_at is None:
        return records, offset, "ok"
    # A bad frame is a torn tail only if nothing decodable follows it.
    remainder = data[bad_at + 1 :]
    for probe in range(len(remainder) - HEADER_SIZE):
        length, crc = _HEADER.unpack_from(remainder, probe)
        body = remainder[probe + HEADER_SIZE : probe + HEADER_SIZE + length]
        if len(body) == length and length > 0 and zlib.crc32(body) == crc:
            return records, offset, "corrupt"
    return records, offset, "torn"
