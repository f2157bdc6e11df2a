"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

from __future__ import annotations

import math


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A configuration value is invalid or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulation was driven into an invalid state."""


class TransportError(ReproError):
    """A transport-level failure (unknown destination, closed transport)."""


class ProtocolError(ReproError):
    """A replication-protocol invariant was violated.

    This indicates a bug in the protocol implementation (or deliberately
    adversarial test input), never a normal runtime condition such as a
    crash or message delay.
    """


class TransactionError(ReproError):
    """Base class for transaction-related failures."""


class LockConflict(TransactionError):
    """A lock request conflicts with a lock held by another transaction."""


class ServiceError(ReproError):
    """An application service rejected or failed to execute a request."""


def require_finite(config: object, *names: str) -> None:
    """Raise :class:`ConfigError` unless every named field of ``config``
    is finite (``None`` passes): NaN slips past every ``<``/``>`` range
    check, and an infinite duration or rate keeps a run from ending."""
    for name in names:
        value = getattr(config, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
