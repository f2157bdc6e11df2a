"""Precomputed pickling for frozen slotted dataclasses.

Slotted dataclasses pickle through :func:`dataclasses._dataclass_getstate`,
which calls ``dataclasses.fields()`` — and therefore rebuilds the field
list — on **every** dump, and ships the state as a per-instance dict of
field-name keys. For the simulator's byte accounting (one ``pickle.dumps``
per sent message) that is the single largest hidden cost.

:func:`fast_pickle` computes the field tuple once at class-creation time
and swaps in an :func:`operator.attrgetter`-based ``__getstate__`` plus a
matching ``__setstate__``. The wire format stays pure pickle and
round-trips through the TCP transport unchanged; only the state container
changes (a value tuple instead of the ``(None, {name: value})`` pair), so
frames also get a little smaller.

Apply it *outside* ``@dataclass(slots=True)`` — the dataclass decorator
replaces the class object when adding slots, and ``fast_pickle`` must see
the final class::

    @fast_pickle
    @dataclass(frozen=True, slots=True)
    class Accept: ...
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter
from typing import TypeVar

T = TypeVar("T")


class KeepsWireSize:
    """Base for immutable message parts that ride inside several messages
    (a request inside its broadcast, then inside every proposal built from
    it): one spare slot in which :func:`repro.transport.codec.wire_size`
    leaves the instance's modelled size the first time it works it out.

    The slot is not a dataclass field, so it takes no part in ``__init__``,
    equality, ``repr`` or the pickled state, and a copy starts without it.
    """

    __slots__ = ("_wire_size",)


def fast_pickle(cls: type[T]) -> type[T]:
    """Install precomputed ``__getstate__``/``__setstate__`` on ``cls``."""
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"fast_pickle requires a dataclass, got {cls!r}")
    names = tuple(f.name for f in dataclasses.fields(cls))
    if not names:
        return cls  # nothing to snapshot; default pickling is already cheap
    getter = attrgetter(*names)
    setattr_ = object.__setattr__  # works for frozen dataclasses too

    if len(names) == 1:
        only = names[0]

        def __getstate__(self: T) -> tuple:
            return (getter(self),)

        def __setstate__(self: T, state: tuple) -> None:
            setattr_(self, only, state[0])

    else:

        def __getstate__(self: T) -> tuple:
            return getter(self)

        def __setstate__(self: T, state: tuple) -> None:
            for name, value in zip(names, state, strict=True):
                setattr_(self, name, value)

    cls.__getstate__ = __getstate__  # type: ignore[attr-defined]
    cls.__setstate__ = __setstate__  # type: ignore[attr-defined]
    return cls
