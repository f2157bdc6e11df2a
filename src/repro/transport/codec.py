"""Length-prefixed pickle framing for the TCP transport, and the wire-size
model the simulator accounts bytes with.

Frame format: 4-byte big-endian payload length, then the pickled message.
Pickle is acceptable here because both endpoints are this library's own
processes on one machine (the paper's prototype likewise used its own
binary format over TCP); this is not a security boundary.

:func:`encoded_size` is the exact size of such a frame. :func:`wire_size`
is a *model* of a compact binary encoding, for the simulated network: it
carries object references, never bytes, and message size feeds no delay,
so serializing every message only to count its bytes would be the largest
single host cost of a default run. The model is a pure function of the
message's content (see :func:`wire_size` for the encoding rules).
"""

from __future__ import annotations

import dataclasses
import enum
import pickle
import struct
from collections.abc import Callable, Iterable, Iterator
from operator import attrgetter
from typing import Any

from repro.util.fastpickle import KeepsWireSize

_HEADER = struct.Struct(">I")

#: Refuse frames larger than this (corrupt stream guard), 64 MiB.
MAX_FRAME = 64 * 1024 * 1024


def encode_frame(message: Any) -> bytes:
    """Serialize one message into a length-prefixed frame."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME:
        raise ValueError(f"message of {len(payload)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(payload)) + payload


def encoded_size(message: Any) -> int:
    """Exact size in bytes of the frame :func:`encode_frame` writes for
    ``message`` (header + pickled payload): what the TCP transport puts on
    the wire. The simulator's byte accounting uses :func:`wire_size`.
    """
    return _HEADER.size + len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


# ------------------------------------------------------------ wire-size model
_TAG = 1          # every value leads with a one-byte type tag
_LENGTH = 4       # strings, bytes and containers carry a u32 length/count
_PREFIXED = _TAG + _LENGTH
_NUMBER = _TAG + 8

#: Sizes of the other fixed-width leaves by exact type; enum classes join
#: on first sight (a member is its tag plus a one-byte ordinal).
_FIXED: dict[type, int] = {bool: _TAG + 1, float: _NUMBER}
#: Dataclass field readers by exact type: ``(fields_of, keeps its size)``.
_DATACLASSES: dict[type, tuple[Callable[[Any], tuple], bool]] = {}
_keep = object.__setattr__  # the carriers are frozen dataclasses


def _dataclass_plan(cls: type) -> None:
    names = tuple(f.name for f in dataclasses.fields(cls))  # once per type
    if len(names) > 1:
        fields_of: Callable[[Any], tuple] = attrgetter(*names)
    elif names:
        only = attrgetter(names[0])
        fields_of = lambda obj: (only(obj),)  # noqa: E731
    else:
        fields_of = lambda obj: ()  # noqa: E731
    _DATACLASSES[cls] = (fields_of, issubclass(cls, KeepsWireSize))


def _sizes(values: Iterable[Any]) -> int:
    """Summed body sizes of ``values``. Leaves are sized in the loop, not
    by a call each: this runs once per simulated send."""
    total = 0
    for value in values:
        cls = type(value)
        if cls is int:
            total += _NUMBER
        elif cls is str:
            total += _PREFIXED + (
                len(value) if value.isascii() else len(value.encode("utf-8"))
            )
        elif value is None:
            total += _TAG
        elif cls is tuple or cls is list:
            total += _PREFIXED + _sizes(value)
        elif cls in _DATACLASSES:
            fields_of, keeps = _DATACLASSES[cls]
            if keeps:
                size = getattr(value, "_wire_size", None)
                if size is None:
                    size = _TAG + _sizes(fields_of(value))
                    _keep(value, "_wire_size", size)
                total += size
            else:
                total += _TAG + _sizes(fields_of(value))
        elif cls in _FIXED:
            total += _FIXED[cls]
        elif cls is bytes:
            total += _PREFIXED + len(value)
        else:
            total += _uncommon_size(value, cls)
    return total


def _uncommon_size(value: Any, cls: type) -> int:
    """Mappings, sets, unknown leaves — and the first instance of an enum
    or dataclass type, which registers the type."""
    if cls is bytearray:
        return _PREFIXED + len(value)
    if cls is dict:
        return _PREFIXED + _sizes(value) + _sizes(value.values())
    if cls is set or cls is frozenset:
        return _PREFIXED + _sizes(value)
    if isinstance(value, enum.Enum):
        return _FIXED.setdefault(cls, _TAG + 1)
    if dataclasses.is_dataclass(cls):
        _dataclass_plan(cls)
        return _sizes((value,))
    # A leaf type the model does not know: what pickle makes of it.
    return _PREFIXED + len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def wire_size(message: Any) -> int:
    """Modelled wire size of ``message`` in bytes: frame header + body.

    Encoding rules — every value leads with a 1-byte tag, then:

    * ``None``: nothing; ``bool`` and enum members: 1 byte; ``int`` and
      ``float``: 8 bytes (the protocol's integers are instance, sequence
      and round numbers; the model does not widen for bigger ones);
    * ``str`` (UTF-8), ``bytes``: u32 length + the bytes;
    * ``tuple``, ``list``, ``set``, ``dict``: u32 count + each element
      (a dict: each key and each value);
    * a dataclass: its fields in declaration order (the tag names the type);
    * any other leaf: u32 length + ``pickle.dumps`` of it.

    The result depends on nothing but the message's content. An instance of
    a :class:`~repro.util.fastpickle.KeepsWireSize` dataclass is walked once
    and carries its size from then on, protobuf ``ByteSize`` style: such
    carriers are immutable and the same object travels inside several
    messages.
    """
    return _HEADER.size + _sizes((message,))


class FrameDecoder:
    """Incremental decoder: feed bytes, iterate complete messages."""

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> Iterator[Any]:
        """Add received bytes; yield every message completed by them."""
        self._buffer.extend(data)
        while True:
            if len(self._buffer) < _HEADER.size:
                return
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME:
                raise ValueError(f"frame length {length} exceeds MAX_FRAME")
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            yield pickle.loads(payload)

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def decode_frames(data: bytes) -> list[Any]:
    """Decode a byte string containing zero or more complete frames."""
    decoder = FrameDecoder()
    messages = list(decoder.feed(data))
    if decoder.pending_bytes:
        raise ValueError(f"{decoder.pending_bytes} trailing bytes after last frame")
    return messages
