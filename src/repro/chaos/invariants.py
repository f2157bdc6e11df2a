"""Safety and liveness invariants checked after (and during) a chaos run.

All checks are *observational*: they read replica snapshots
(:meth:`repro.core.group.ReplicationGroup.invariant_snapshot`) and client
request records, and never mutate protocol state. Each violated property
yields a :class:`Violation` naming the invariant and carrying enough detail
to reproduce and debug it.

Invariants (the paper's correctness claims under the crash-recovery model
of §3.1, plus the X-/T-Paxos extensions of §3.4–3.6):

* ``log_agreement`` — no two replicas choose different values for the same
  consensus instance (agreement, the core Paxos safety property).
* ``at_most_once`` — no request id occupies more than one chosen instance
  on any replica (the ExecutedTable + dedup machinery works).
* ``prefix_consistency`` — each replica's applied/checkpoint/compaction
  bookkeeping is internally consistent: ``compacted_to <= checkpoint <=
  applied <= frontier``.
* ``state_convergence`` — alive replicas that applied the same prefix have
  byte-identical service state fingerprints (deterministic re-execution of
  the chosen sequence; the paper's replicated-state-machine guarantee).
* ``txn_atomicity`` — every chosen T-Paxos transaction bundle is whole:
  one txn id, ops numbered ``0..n-1`` in order, terminated by a
  ``TXN_COMMIT`` whose ``txn_seq`` equals the op count (no torn suffix
  committed after a leader switch, §3.6).
* ``cross_group_at_most_once`` — sharded clusters only: no request id is
  chosen by more than one replication group (the deterministic router
  really does send every retransmission of a request to the same shard).
* ``linearizability`` — reads and writes of the designated register form a
  linearizable history (covers X-Paxos read freshness, §3.4: a read "must
  reflect the latest update").
* ``acked_durability`` — every client-acknowledged write survives on
  stable storage: its request id is covered by the durable WAL records
  (or checkpoint rid-folds) of the replicas whose storage is intact.
  Enforced only while at least a majority of devices are intact — below
  that the system is allowed to have lost data (the paper's crash-
  recovery model assumes a majority of stable stores survive).
* ``liveness`` — once faults stop and a majority is stable, every client
  finishes its workload before the grace deadline.

On a sharded cluster every replication group is its own consensus
instance: the per-log invariants run once per group over that group's
snapshots (violations are tagged ``[g<N>]``), while durability is judged
per *device* — all of one process's groups share one platter, so a rid is
safe if any of the process's group WALs holds it durably.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from typing import Any, TYPE_CHECKING

from repro.storage.store import RidFold
from repro.types import ReplyStatus, RequestKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.harness import Cluster

#: Names of every invariant this module can report, in check order.
INVARIANTS = (
    "log_agreement",
    "at_most_once",
    "prefix_consistency",
    "state_convergence",
    "txn_atomicity",
    "cross_group_at_most_once",
    "linearizability",
    "acked_durability",
    "liveness",
    "runtime",
)


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant violation with human-readable detail."""

    invariant: str
    detail: str
    data: Mapping[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.invariant}: {self.detail}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "data": {k: self.data[k] for k in sorted(self.data)},
        }


# ------------------------------------------------------------------ per-check
def check_log_agreement(snapshots: Sequence[Mapping[str, Any]]) -> list[Violation]:
    """No two replicas may choose different values for the same instance.

    Logs are stable storage, so crashed replicas participate too."""
    violations: list[Violation] = []
    by_instance: dict[int, dict[str, Any]] = {}
    for snap in snapshots:
        for instance, proposal in snap["chosen"]:
            seen = by_instance.setdefault(instance, {})
            seen[str(proposal.primary_rid)] = seen.get(
                str(proposal.primary_rid), []
            ) + [snap["pid"]]
    for instance in sorted(by_instance):
        rids = by_instance[instance]
        if len(rids) > 1:
            detail = "; ".join(
                f"{rid} on {','.join(pids)}" for rid, pids in sorted(rids.items())
            )
            violations.append(
                Violation(
                    "log_agreement",
                    f"instance {instance} chosen with different values: {detail}",
                    data={"instance": instance, "values": dict(sorted(rids.items()))},
                )
            )
    return violations


def check_at_most_once(snapshots: Sequence[Mapping[str, Any]]) -> list[Violation]:
    """No request id may occupy more than one chosen instance anywhere."""
    violations: list[Violation] = []
    # rid -> {instance, ...} across every replica's retained chosen log.
    instances_by_rid: dict[str, set[int]] = {}
    for snap in snapshots:
        for instance, proposal in snap["chosen"]:
            for request in proposal.requests:
                instances_by_rid.setdefault(str(request.rid), set()).add(instance)
    for rid in sorted(instances_by_rid):
        instances = instances_by_rid[rid]
        if len(instances) > 1:
            violations.append(
                Violation(
                    "at_most_once",
                    f"request {rid} committed in {len(instances)} instances: "
                    f"{sorted(instances)}",
                    data={"rid": rid, "instances": sorted(instances)},
                )
            )
    return violations


def check_prefix_consistency(
    snapshots: Sequence[Mapping[str, Any]],
) -> list[Violation]:
    """Per-replica bookkeeping: compacted <= checkpoint <= applied <= frontier,
    and no retained chosen entry at or below the compaction point."""
    violations: list[Violation] = []
    for snap in snapshots:
        pid = snap["pid"]
        compacted = snap["compacted_to"]
        checkpoint = snap["checkpoint_instance"]
        applied = snap["applied"]
        frontier = snap["frontier"]
        if not compacted <= applied <= frontier:
            violations.append(
                Violation(
                    "prefix_consistency",
                    f"{pid}: compacted_to={compacted} applied={applied} "
                    f"frontier={frontier} out of order",
                    data={"pid": pid, "compacted_to": compacted,
                          "applied": applied, "frontier": frontier},
                )
            )
        if checkpoint > applied:
            violations.append(
                Violation(
                    "prefix_consistency",
                    f"{pid}: checkpoint at {checkpoint} ahead of applied={applied}",
                    data={"pid": pid, "checkpoint": checkpoint, "applied": applied},
                )
            )
        stale = [i for i, _ in snap["chosen"] if i <= compacted]
        if stale:
            violations.append(
                Violation(
                    "prefix_consistency",
                    f"{pid}: retained chosen entries at/below compaction point "
                    f"{compacted}: {stale}",
                    data={"pid": pid, "compacted_to": compacted, "stale": stale},
                )
            )
    return violations


def check_state_convergence(
    snapshots: Sequence[Mapping[str, Any]],
) -> list[Violation]:
    """Alive replicas that applied the same prefix must have identical
    service-state fingerprints (applied state is volatile, so crashed
    replicas are excluded until they recover; a leader with an accept round
    in flight reports no fingerprint, its copy being ahead of ``applied``)."""
    violations: list[Violation] = []
    by_applied: dict[int, dict[str, list[str]]] = {}
    for snap in snapshots:
        if not snap["alive"] or "fingerprint" not in snap:
            continue
        fingerprints = by_applied.setdefault(snap["applied"], {})
        fingerprints.setdefault(str(snap["fingerprint"]), []).append(snap["pid"])
    for applied in sorted(by_applied):
        fingerprints = by_applied[applied]
        if len(fingerprints) > 1:
            detail = "; ".join(
                f"{fp[:12]}… on {','.join(pids)}"
                for fp, pids in sorted(fingerprints.items())
            )
            violations.append(
                Violation(
                    "state_convergence",
                    f"replicas at applied={applied} diverge: {detail}",
                    data={"applied": applied,
                          "fingerprints": {fp: pids for fp, pids
                                           in sorted(fingerprints.items())}},
                )
            )
    return violations


def check_txn_atomicity(snapshots: Sequence[Mapping[str, Any]]) -> list[Violation]:
    """Every chosen transactional proposal must be a whole transaction."""
    violations: list[Violation] = []
    reported: set[tuple[str, int]] = set()
    for snap in snapshots:
        for instance, proposal in snap["chosen"]:
            requests = proposal.requests
            if not any(r.txn is not None for r in requests):
                continue
            key = (snap["pid"], instance)
            problem = _torn_txn(requests)
            if problem and key not in reported:
                reported.add(key)
                violations.append(
                    Violation(
                        "txn_atomicity",
                        f"{snap['pid']} instance {instance}: {problem}",
                        data={"pid": snap["pid"], "instance": instance,
                              "rids": [str(r.rid) for r in requests]},
                    )
                )
    return violations


def _torn_txn(requests: Sequence[Any]) -> str | None:
    """Why this chosen request bundle is not a whole transaction, or None."""
    txn_ids = {r.txn for r in requests}
    if len(txn_ids) != 1 or None in txn_ids:
        return f"mixed transaction ids {sorted(str(t) for t in txn_ids)}"
    commit = requests[-1]
    if commit.kind is not RequestKind.TXN_COMMIT:
        return f"bundle does not end in TXN_COMMIT (ends {commit.kind.value})"
    ops = requests[:-1]
    if any(r.kind is not RequestKind.TXN_OP for r in ops):
        return "non-TXN_OP request inside a transaction bundle"
    if commit.txn_seq != len(ops):
        return (
            f"torn suffix: commit claims {commit.txn_seq} ops, "
            f"bundle carries {len(ops)}"
        )
    if [r.txn_seq for r in ops] != list(range(len(ops))):
        return f"ops out of order: {[r.txn_seq for r in ops]}"
    return None


def check_cross_group_at_most_once(
    snapshots_by_group: Mapping[int, Sequence[Mapping[str, Any]]],
) -> list[Violation]:
    """No request id may be chosen by more than one replication group.

    Within a group the ExecutedTable dedups retransmissions; *across*
    groups the only guard is the router's determinism. A rid chosen in two
    groups means two processes disagreed about where a request lives —
    and its op would execute twice in two state machines."""
    violations: list[Violation] = []
    groups_by_rid: dict[str, set[int]] = {}
    for group_id, snapshots in snapshots_by_group.items():
        for snap in snapshots:
            for _instance, proposal in snap["chosen"]:
                for request in proposal.requests:
                    groups_by_rid.setdefault(str(request.rid), set()).add(group_id)
    for rid in sorted(groups_by_rid):
        groups = groups_by_rid[rid]
        if len(groups) > 1:
            violations.append(
                Violation(
                    "cross_group_at_most_once",
                    f"request {rid} chosen by {len(groups)} replication "
                    f"groups: {sorted(groups)}",
                    data={"rid": rid, "groups": sorted(groups)},
                )
            )
    return violations


def check_linearizability(
    clients: Iterable, key: Any, initial: Any = None
) -> list[Violation]:
    """The designated register's completed reads/writes must linearize.

    Subsumes X-Paxos read freshness: a stale confirmed read shows up as a
    read that cannot be ordered after the write it missed."""
    from repro.analysis.linearizability import check_register, history_from_clients

    history = history_from_clients(clients, key)
    if check_register(history, initial=initial):
        return []
    ops = sorted(history, key=lambda op: (op.invoked, op.completed))
    return [
        Violation(
            "linearizability",
            f"history of {len(history)} ops on register {key!r} has no legal "
            f"linearization",
            data={
                "key": key,
                "ops": [
                    f"{op.kind}({op.value!r}) @ [{op.invoked:.4f}, "
                    f"{op.completed:.4f}]"
                    for op in ops
                ],
            },
        )
    ]


def check_acked_durability(
    clients: Iterable,
    snapshots: Sequence[Mapping[str, Any]],
    majority: int,
) -> list[Violation]:
    """Every acknowledged write must be durable on some intact device.

    The durability barriers guarantee that an acked write has its accept
    record fsynced on a majority of replicas, so as long as at least
    ``majority`` devices are intact, *some* intact replica still holds
    every acked request id — in its durable WAL tail or folded into its
    checkpoint. With fewer intact devices the check stands down: losing
    data beyond the fault model's budget is permitted (and unavoidable).
    """
    intact = [snap for snap in snapshots if snap["storage_intact"]]
    if len(intact) < majority:
        return []
    covered = RidFold()
    for snap in intact:
        covered |= snap["durable_rids"]
    violations: list[Violation] = []
    for client in clients:
        for record in client.request_records():
            if record.kind not in (RequestKind.WRITE, RequestKind.TXN_COMMIT):
                continue
            if record.completed_at is None or record.status is not ReplyStatus.OK:
                continue
            if record.rid not in covered:
                rid = str(record.rid)
                violations.append(
                    Violation(
                        "acked_durability",
                        f"acked {record.kind.value} {rid} (client {client.pid}, "
                        f"completed t={record.completed_at:.4f}s) is on no "
                        f"intact stable store "
                        f"({len(intact)}/{len(snapshots)} devices intact)",
                        data={
                            "rid": rid,
                            "client": client.pid,
                            "intact": [snap["pid"] for snap in intact],
                        },
                    )
                )
    return violations


def check_liveness(clients: Iterable, deadline: float) -> list[Violation]:
    """After faults stop, every client must finish by ``deadline``."""
    violations: list[Violation] = []
    for client in clients:
        if not client.done:
            pending = sum(
                1
                for record in client.request_records()
                if record.completed_at is None
            )
            violations.append(
                Violation(
                    "liveness",
                    f"client {client.pid} not done by t={deadline:g}s "
                    f"({client.completed_requests} requests completed, "
                    f"{pending} in flight)",
                    data={"pid": client.pid, "deadline": deadline,
                          "completed": client.completed_requests},
                )
            )
    return violations


# --------------------------------------------------------------------- driver
def check_cluster(
    cluster: "Cluster",
    register_key: Any = None,
    register_initial: Any = None,
    liveness_deadline: float | None = None,
) -> list[Violation]:
    """Run every applicable invariant against ``cluster``'s current state.

    ``register_key`` enables the linearizability check for that key;
    ``liveness_deadline`` enables the liveness check (the caller decides
    when the post-heal grace period has expired).

    Each (process, group) pair reports one snapshot; the per-log invariants
    run within each group. With more than one group their violations carry
    a ``[g<N>]`` tag.
    """
    by_group: dict[int, list[Mapping[str, Any]]] = {}
    for host in cluster.replicas.values():
        for group_id, group in host.groups.items():
            by_group.setdefault(group_id, []).append(group.invariant_snapshot())
    sharded = len(by_group) > 1

    violations: list[Violation] = []
    for group_id in sorted(by_group):
        snapshots = by_group[group_id]
        group_violations: list[Violation] = []
        group_violations.extend(check_log_agreement(snapshots))
        group_violations.extend(check_at_most_once(snapshots))
        group_violations.extend(check_prefix_consistency(snapshots))
        group_violations.extend(check_state_convergence(snapshots))
        group_violations.extend(check_txn_atomicity(snapshots))
        if sharded:
            group_violations = [
                replace(
                    v,
                    detail=f"[g{group_id}] {v.detail}",
                    data={**v.data, "rgroup": group_id},
                )
                for v in group_violations
            ]
        violations.extend(group_violations)
    if sharded:
        violations.extend(check_cross_group_at_most_once(by_group))
    if register_key is not None:
        violations.extend(
            check_linearizability(
                cluster.clients, register_key, initial=register_initial
            )
        )
    # Durability accounting needs the checkpoint rid-fold, which is only
    # recorded when the cluster runs with track_commits (chaos trials with
    # a real fsync barrier enable it; write-through runs would see false
    # positives for rids compacted out of the WAL).
    if cluster.config.track_commits:
        violations.extend(
            check_acked_durability(
                cluster.clients,
                _device_snapshots(by_group),
                cluster.config.majority,
            )
        )
    if liveness_deadline is not None:
        violations.extend(check_liveness(cluster.clients, liveness_deadline))
    return violations


def _device_snapshots(
    by_group: Mapping[int, Sequence[Mapping[str, Any]]],
) -> list[dict[str, Any]]:
    """Collapse per-(process, group) snapshots to one per *device*.

    All of a process's groups share one simulated platter, so intactness
    is a property of the process and a rid is durable on the device if any
    group's WAL (or checkpoint fold) holds it."""
    devices: dict[str, dict[str, Any]] = {}
    for snapshots in by_group.values():
        for snap in snapshots:
            device = devices.setdefault(
                snap["pid"],
                {"pid": snap["pid"], "storage_intact": True, "durable_rids": RidFold()},
            )
            device["storage_intact"] &= bool(snap["storage_intact"])
            device["durable_rids"] |= snap["durable_rids"]
    return [devices[pid] for pid in sorted(devices)]
