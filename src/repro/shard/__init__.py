"""Keyspace sharding: several replication groups per process.

:class:`repro.shard.router.ShardRouter` maps service keys to replication
groups with a deterministic, process-independent hash, so every process
routes identically without coordination. :class:`repro.shard.host.GroupHost`
is the process that hosts one replica of *every* group, sharing one
stable-storage pump (one simulated disk, one fsync clock, one crash)
across all of them.
"""
