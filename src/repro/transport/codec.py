"""Length-prefixed framing for the TCP transport, and the wire-size model
the simulator accounts bytes with.

Frame format: 4-byte big-endian body length, then the body. A ``(src, msg)``
pair whose ``msg`` is a registered wire dataclass — every frame of a
protocol run — is :data:`_PACKED`, then the pickle of ``(src, tag, packed
fields)``: the message's compiled plan (:mod:`repro.util.fastpickle`) has
already turned it into nested tuples of ints and strings, so pickle meets
no object and spells no class path. Anything else is the plain pickle of
the object, as before. Pickle is acceptable here because both endpoints are
this library's own processes on one machine (the paper's prototype likewise
used its own binary format over TCP); this is not a security boundary.

:func:`encoded_size` is the exact size of such a frame. :func:`wire_size`
is a *model* of a compact binary encoding, for the simulated network: it
carries object references, never bytes, and message size feeds no delay,
so serializing every message only to count its bytes would be the largest
single host cost of a default run. The model is a pure function of the
message's content (see :func:`wire_size` for the encoding rules). A
dataclass is sized by a function compiled from its own field list the
first time its type is seen (:func:`_compile_sizer`), so the dataclass is
the only place a layout is written down; everything else, and every value
an annotation did not predict, goes through the generic walk
(:func:`_sizes`).
"""

from __future__ import annotations

import dataclasses
import enum
import pickle
import struct
from collections.abc import Callable, Iterable, Iterator
from typing import Any

from repro.util.fastpickle import KeepsWireSize, classify, field_hints, pack, unpack

_HEADER = struct.Struct(">I")

#: Refuse frames larger than this (corrupt stream guard), 64 MiB.
MAX_FRAME = 64 * 1024 * 1024

#: First body byte of a frame whose message travels as its packed fields.
#: Every pickle this module writes starts with the PROTO opcode, 0x80.
_PACKED = b"\x01"


def _body(message: Any) -> bytes:
    """What follows the length: ``message`` pickled — or, for a ``(src,
    msg)`` pair whose ``msg`` has a packing plan, :data:`_PACKED` and the
    pickle of ``(src, tag, packed fields)``."""
    if type(message) is tuple and len(message) == 2:
        packed = pack(message[1])
        if packed is not None:
            return _PACKED + pickle.dumps((message[0], *packed), pickle.HIGHEST_PROTOCOL)
    return pickle.dumps(message, pickle.HIGHEST_PROTOCOL)


def encode_frame(message: Any) -> bytes:
    """Serialize one message into a length-prefixed frame."""
    body = _body(message)
    if len(body) > MAX_FRAME:
        raise ValueError(f"message of {len(body)} bytes exceeds MAX_FRAME")
    return _HEADER.pack(len(body)) + body


def encoded_size(message: Any) -> int:
    """Exact size in bytes of the frame :func:`encode_frame` writes for
    ``message`` (header + body): what the TCP transport puts on the wire.
    The simulator's byte accounting uses :func:`wire_size`.
    """
    return _HEADER.size + len(_body(message))


# ------------------------------------------------------------ wire-size model
_TAG = 1          # every value leads with a one-byte type tag
_LENGTH = 4       # strings, bytes and containers carry a u32 length/count
_PREFIXED = _TAG + _LENGTH
_NUMBER = _TAG + 8

#: Sizes of the other fixed-width leaves by exact type; enum classes join
#: on first sight (a member is its tag plus a one-byte ordinal).
_FIXED: dict[type, int] = {bool: _TAG + 1, float: _NUMBER}
#: One compiled sizer per dataclass type, built at the type's first sight.
_SIZERS: dict[type, Callable[[Any], int]] = {}
_keep = object.__setattr__  # the carriers are frozen dataclasses


def _sizes(values: Iterable[Any]) -> int:
    """Summed body sizes of ``values``: the generic walk. It sizes whatever
    is not a dataclass, and whatever a compiled sizer finds in a field
    whose annotation promised something else."""
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
        elif cls in _SIZERS:
            total += _SIZERS[cls](value)
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
        sizer = _SIZERS[cls] = _compile_sizer(cls)
        return sizer(value)
    # A leaf type the model does not know: what pickle makes of it.
    return _PREFIXED + len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


def _compile_sizer(cls: type) -> Callable[[Any], int]:
    """Write and compile the sizer of dataclass ``cls`` from its field list
    and type hints, so the dataclass stays the only statement of a layout.

    The sizer is flat: the type tags a layout implies fold into constants
    and every field is sized in place by what its annotation promises,
    behind an exact-type guard — an annotation is a hint, and a value that
    fails the guard goes through :func:`_sizes`. For every instance,
    well-typed or not, the result is ``_TAG + _sizes(its fields)``. A
    :class:`KeepsWireSize` type's sizer also reads and fills the slot.
    """
    names: dict[str, Any] = {"_sizes": _sizes, "_SIZERS": _SIZERS, "_keep": _keep}
    keeps = issubclass(cls, KeepsWireSize)
    lines = ["def sizer(obj):"]
    if keeps:
        lines += [
            "    total = getattr(obj, '_wire_size', None)",
            "    if total is not None:",
            "        return total",
        ]
    lines.append(f"    total = {_TAG}")
    for name, hint in field_hints(cls):
        lines.append(f"    v = obj.{name}")
        _emit_size(lines, names, hint, "v", 1)
    if keeps:
        lines.append("    _keep(obj, '_wire_size', total)")
    lines.append("    return total")
    # The file name keeps profilers attributing the sizer to this module.
    code = compile("\n".join(lines), f"{__file__}:<sizer {cls.__qualname__}>", "exec")
    exec(code, names)
    return names["sizer"]


def _emit_size(lines: list[str], names: dict[str, Any], hint: Any, var: str, depth: int) -> None:
    """Append the statements that add the size of ``var``, annotated
    ``hint``, to ``total``: a guard, the exact sizing under it, and the
    generic walk otherwise."""
    pad = "    " * depth
    kind, detail = classify(hint)
    if kind == "optional":
        lines += [f"{pad}if {var} is None:", f"{pad}    total += {_TAG}", f"{pad}else:"]
        _emit_size(lines, names, detail, var, depth + 1)
        return
    body: list[str]
    if kind in ("scalar", "enum") or (kind == "dataclass" and issubclass(detail, KeepsWireSize)):
        name = f"T{len(names)}"
        names[name] = detail
        guard = f"type({var}) is {name}"
        if detail is str:
            body = [
                f"total += {_PREFIXED} + "
                f"(len({var}) if {var}.isascii() else len({var}.encode('utf-8')))"
            ]
        elif kind == "dataclass":  # sized before, it says so itself
            body = [
                f"kept = getattr({var}, '_wire_size', None)",
                f"total += _sizes(({var},)) if kept is None else kept",
            ]
        else:  # int, float, bool or an enum: tag + fixed width
            width = _NUMBER if detail is int else _FIXED.setdefault(detail, _TAG + 1)
            body = [f"total += {width}"]
    elif kind == "each":
        each = f"{var}_"
        guard = f"type({var}) is tuple"
        body = [f"total += {_PREFIXED}", f"for {each} in {var}:"]
        _emit_size(body, names, detail, each, 1)
    elif kind == "fixed":
        each = f"{var}_"
        guard = f"type({var}) is tuple and len({var}) == {len(detail)}"
        body = [f"total += {_PREFIXED}"]
        for index, arg in enumerate(detail):
            body.append(f"{each} = {var}[{index}]")
            _emit_size(body, names, arg, each, 0)
    else:
        # Another dataclass, ``Any``, or nothing else the annotation pins
        # down: the value's own sizer if its type has one; an opaque field
        # (op, reply, state) first tries what such fields mostly hold.
        if kind == "opaque":
            lines += [
                f"{pad}if type({var}) is int:",
                f"{pad}    total += {_NUMBER}",
                f"{pad}elif {var} is None:",
                f"{pad}    total += {_TAG}",
                f"{pad}elif type({var}) is tuple:",
                f"{pad}    total += {_PREFIXED} + _sizes({var})",
                f"{pad}else:",
            ]
            pad += "    "
        lines += [
            f"{pad}own = _SIZERS.get(type({var}))",
            f"{pad}total += _sizes(({var},)) if own is None else own({var})",
        ]
        return
    lines.append(f"{pad}if {guard}:")
    lines += [f"{pad}    {line}" for line in body]
    lines += [f"{pad}else:", f"{pad}    total += _sizes(({var},))"]


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
    sizer = _SIZERS.get(type(message))
    return _HEADER.size + (_sizes((message,)) if sizer is None else sizer(message))


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
            body = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            if body[:1] == _PACKED:
                src, tag, fields = pickle.loads(memoryview(body)[1:])
                yield src, unpack(tag, fields)
            else:
                yield pickle.loads(body)

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
