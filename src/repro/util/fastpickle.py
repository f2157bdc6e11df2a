"""One compiled pack / unpack plan per wire dataclass: the only way a
message becomes bytes.

Left to itself, pickle handles a frozen slotted dataclass one object at a
time: a ``__reduce_ex__``, a Python call to read the state, a class looked
up by module and name and a Python loop to set the state, for every
``Ballot`` inside every ``Proposal`` inside every ``AcceptBatch``, and the
frame spells each class path and enum value as text. That was 192 of the
467 host us a request cost on the real-TCP runtime (docs/performance.md,
"The wire codec"). The simulator pickles nothing — it passes references
and sizes them with :func:`repro.transport.codec.wire_size` — so none of
this runs there; what does is the TCP transport and the WAL's byte form.

:func:`fast_pickle` registers a dataclass under its class name and installs
a ``__reduce__`` that returns ``(unpack, (tag, fields))``: one Python call
turns the message and every registered dataclass its annotations name into
a nested tuple of primitives, so pickle only sees tuples, ints and strings.
:func:`pack` / :func:`unpack` are the same plan without the reduce hop, for
a codec that knows where a frame's message sits.

A plan is compiled from the class's own field list and type hints the
first time an instance is packed or unpacked (:func:`classify` is the one
reading of an annotation; the sizers of ``transport/codec.py`` are compiled
from it too):

* a scalar, ``Any`` or anything else pickle is trusted with travels as it
  is, whatever the annotation said;
* an enum member travels as its ordinal, a registered dataclass as the
  tuple of its packed fields, a ``tuple[...]`` of those element by element —
  each *in place*: the position carries no tag, because the plan on the
  other side knows what sits there;
* an annotation is a hint: a value that is not exactly what its position
  promised (``None``, a subclass instance, a tuple of another length)
  travels as ordinary pickle inside a one-element list, which no typed
  position otherwise holds, and still round-trips.

Unpacking builds each instance with ``object.__new__`` and
``object.__setattr__`` (so, as with any unpickling, ``__init__`` does not
run), after checking the field count; an unknown tag, a wrong field count,
an ordinal no member has or a non-tuple at a typed position raise
:class:`pickle.UnpicklingError` before any message exists.

The tag is the class name — a function of the class alone, never of import
order, so two processes agree on it — and the registry refuses a second
class of the same name.

Apply the decorator *outside* ``@dataclass(slots=True)`` — the dataclass
decorator replaces the class object when adding slots, and ``fast_pickle``
must see the final class::

    @fast_pickle
    @dataclass(frozen=True, slots=True)
    class Accept: ...
"""

from __future__ import annotations

import dataclasses
import enum
import types
import typing
from collections.abc import Callable
from pickle import UnpicklingError
from typing import Any, TypeVar

T = TypeVar("T")

_NONE = type(None)


class KeepsWireSize:
    """Base for immutable message parts that ride inside several messages
    (a request inside its broadcast, then inside every proposal built from
    it): one spare slot in which :func:`repro.transport.codec.wire_size`
    leaves the instance's modelled size the first time it works it out.

    The slot is not a dataclass field, so it takes no part in ``__init__``,
    equality, ``repr`` or the packed fields, and a copy starts without it.
    """

    __slots__ = ("_wire_size",)


# ------------------------------------------------------ reading an annotation
def field_hints(cls: type) -> list[tuple[str, Any]]:
    """``(name, resolved annotation)`` of every field of dataclass ``cls``."""
    try:
        hints = typing.get_type_hints(cls)
    except Exception:  # unresolvable forward reference: every field is Any
        hints = {}
    return [(field.name, hints.get(field.name, Any)) for field in dataclasses.fields(cls)]


def classify(hint: Any) -> tuple[str, Any]:
    """What an annotation promises about a field, as ``(kind, detail)``:

    * ``("optional", inner)`` — ``inner | None``;
    * ``("scalar", type)`` — ``int``, ``str``, ``bool`` or ``float``;
    * ``("enum", cls)``; ``("dataclass", cls)``;
    * ``("each", element)`` — ``tuple[element, ...]``;
    * ``("fixed", (first, second, ...))`` — ``tuple[first, second]``;
    * ``("opaque", None)`` — ``Any`` and whatever else pins nothing down.
    """
    args = typing.get_args(hint)
    origin = typing.get_origin(hint)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and _NONE in args:
        return "optional", args[args[0] is _NONE]
    if origin is tuple and args:
        if len(args) == 2 and args[1] is Ellipsis:
            return "each", args[0]
        return "fixed", args
    if isinstance(hint, type):
        if hint in (int, str, bool, float):
            return "scalar", hint
        if issubclass(hint, enum.Enum):
            return "enum", hint
        if dataclasses.is_dataclass(hint):
            return "dataclass", hint
    return "opaque", None


# ------------------------------------------------------------------ the plans
#: tag -> class, filled by the decorator; plans join on first use.
_CLASSES: dict[str, type] = {}
_PACKERS: dict[type, tuple[str, Callable[[Any], tuple]]] = {}
_UNPACKERS: dict[str, Callable[[Any], Any]] = {}


def fast_pickle(cls: type[T]) -> type[T]:
    """Register dataclass ``cls`` under its name and make every pickle of an
    instance one call of its packing plan."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"fast_pickle requires a dataclass, got {cls!r}")
    tag = cls.__name__
    if _CLASSES.setdefault(tag, cls) is not cls:
        raise TypeError(f"fast_pickle: {tag!r} already names {_CLASSES[tag]!r}")
    cls.__reduce__ = _reduce  # type: ignore[assignment]
    return cls


def _reduce(self: Any) -> tuple:
    """``__reduce__`` of every registered class."""
    packed = pack(self)
    if packed is None:  # a subclass: not what the plan was compiled for
        values = [getattr(self, field.name) for field in dataclasses.fields(self)]
        return _rebuild, (type(self), values)
    return unpack, packed


def _rebuild(cls: type[T], values: list) -> T:
    """An unregistered subclass of a registered dataclass, from its class
    and field values."""
    obj = object.__new__(cls)
    for field, value in zip(dataclasses.fields(cls), values, strict=True):
        object.__setattr__(obj, field.name, value)
    return obj


def pack(obj: Any) -> tuple[str, tuple] | None:
    """``(tag, packed fields)`` of ``obj`` when exactly its type is
    registered, else None; ``unpack(*pack(obj)) == obj``."""
    cls = type(obj)
    plan = _PACKERS.get(cls)
    if plan is None:
        if _CLASSES.get(cls.__name__) is not cls:
            return None
        _compile(cls)
        plan = _PACKERS[cls]
    tag, packer = plan
    return tag, packer(obj)


def unpack(tag: str, fields: tuple) -> Any:
    """The instance of the class registered as ``tag`` that ``fields`` pack."""
    unpacker = _UNPACKERS.get(tag)
    if unpacker is None:
        cls = _CLASSES.get(tag)
        if cls is None:
            # A process that only reads frames or a WAL may not have imported
            # the wire classes yet; importing the messages registers them all.
            import repro.core.messages  # noqa: F401

            cls = _CLASSES.get(tag)
        if cls is None:
            raise UnpicklingError(f"unknown message tag {tag!r}")
        _compile(cls)
        unpacker = _UNPACKERS[tag]
    return unpacker(fields)


class _Members(dict):
    """ordinal -> member of one enum class; a miss is a damaged frame."""

    def __missing__(self, ordinal: Any) -> Any:
        raise UnpicklingError(f"no enum member has ordinal {ordinal!r}")


def _escaped(value: Any) -> Any:
    """The value a packer found at a typed position and could not pack in
    place: it travelled as ordinary pickle inside a one-element list."""
    if type(value) is list and len(value) == 1:
        return value[0]
    raise UnpicklingError(f"neither packed fields nor an escaped value: {value!r}")


def _wrong_fields(cls: type, fields: Any) -> UnpicklingError:
    count = len(dataclasses.fields(cls))
    return UnpicklingError(f"{cls.__name__} takes a tuple of {count} fields, got {fields!r}")


def _compile(cls: type) -> None:
    """Write and compile the packer and unpacker of registered dataclass
    ``cls`` (and, first, of every registered dataclass its annotations
    name) from its field list, the way ``codec._compile_sizer`` writes a
    sizer."""
    names: dict[str, Any] = {
        "cls": cls,
        "new": object.__new__,
        "put": object.__setattr__,  # works for frozen dataclasses too
        "escaped": _escaped,
        "wrong_fields": _wrong_fields,
    }
    fields = field_hints(cls)
    pack_lines, packed, unpack_lines = [], [], []
    for index, (name, hint) in enumerate(fields):
        var = f"v{index}"
        packer, unpacker = _emit(names, hint, var, 0) or (None, var)
        if packer is None:
            packed.append(f"obj.{name}")
        else:
            pack_lines.append(f"    {var} = obj.{name}")
            packed.append(packer)
        unpack_lines.append(f"    put(obj, {name!r}, {unpacker})")
    lines = [
        "def packer(obj):",
        *pack_lines,
        f"    return ({''.join(f'{value}, ' for value in packed)})",
        "def unpacker(fields):",
        f"    if type(fields) is not tuple or len(fields) != {len(fields)}:",
        "        raise wrong_fields(cls, fields)",
    ]
    if fields:
        lines.append(f"    {''.join(f'v{index}, ' for index in range(len(fields)))}= fields")
    lines += ["    obj = new(cls)", *unpack_lines, "    return obj"]
    # The file name keeps profilers attributing the plan to this module.
    code = compile("\n".join(lines), f"{__file__}:<plan {cls.__qualname__}>", "exec")
    exec(code, names)
    # In this order: a class in _PACKERS has both (another thread may look).
    _UNPACKERS[cls.__name__] = names["unpacker"]
    _PACKERS[cls] = (cls.__name__, names["packer"])


def _emit(names: dict[str, Any], hint: Any, var: str, depth: int) -> tuple[str, str] | None:
    """The two expressions that pack and unpack the value ``var`` holds at a
    position annotated ``hint``, or None when the value travels as it is.
    ``var`` is a local name or a subscript of one: reading it twice is free."""
    kind, detail = classify(hint)
    if kind == "optional":
        inner = _emit(names, detail, var, depth)
        return inner and tuple(f"(None if {var} is None else {side})" for side in inner)
    if kind == "enum":
        key = f"E{len(names)}"
        names[key] = detail
        names[f"{key}_ordinal"] = tuple(detail).index
        names[f"{key}_member"] = _Members(enumerate(detail))
        guards = f"type({var}) is {key}", f"type({var}) is int"
        values = f"{key}_ordinal({var})", f"{key}_member[{var}]"
    elif kind == "dataclass" and _CLASSES.get(detail.__name__) is detail:
        if detail not in _PACKERS:
            _compile(detail)
        key = f"D{len(names)}"
        names[key] = detail
        names[f"{key}_pack"] = _PACKERS[detail][1]
        names[f"{key}_unpack"] = _UNPACKERS[detail.__name__]
        guards = f"type({var}) is {key}", f"type({var}) is tuple"
        values = f"{key}_pack({var})", f"{key}_unpack({var})"
    elif kind == "each":
        each = f"e{depth}"
        inner = _emit(names, detail, each, depth + 1)
        if inner is None:
            return None
        guards = (f"type({var}) is tuple",) * 2
        values = tuple(f"tuple([{side} for {each} in {var}])" for side in inner)
    elif kind == "fixed":
        items = [f"{var}[{index}]" for index in range(len(detail))]
        inners = [_emit(names, arg, item, depth) for arg, item in zip(detail, items)]
        if not any(inners):
            return None
        guards = (f"type({var}) is tuple and len({var}) == {len(detail)}",) * 2
        values = tuple(
            "".join(f"{inner[side] if inner else item}, " for inner, item in zip(inners, items))
            for side in (0, 1)
        )
        values = f"({values[0]})", f"({values[1]})"
    else:  # a scalar, Any, an unregistered dataclass: pickle's business
        return None
    return (
        f"({values[0]} if {guards[0]} else [{var}])",
        f"({values[1]} if {guards[1]} else escaped({var}))",
    )
