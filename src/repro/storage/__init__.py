"""Deterministic simulated stable storage (WAL + checkpoints + fsync model).

See :mod:`repro.storage.store` for the replica-facing API and the crash/
replay contract, :mod:`repro.storage.device` for the durability state
machine, and :mod:`repro.storage.wal` for the CRC record framing.
"""

FSYNC_MODES = ("sync", "group", "async")
