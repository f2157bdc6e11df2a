"""repro — Replicating Nondeterministic Services on Grid Environments.

A faithful, simulator-backed reproduction of the HPDC 2006 paper by Zhang,
Junqueira, Marzullo, Hiltunen and Schlichting: Paxos-based replication of
nondeterministic services, with the X-Paxos read optimization and the
T-Paxos transaction optimization.

Quick tour::

    from repro import ClusterSpec, Cluster, sysnet, single_kind_steps, RequestKind

    spec = ClusterSpec(profile=sysnet(), seed=1)
    steps = single_kind_steps(RequestKind.WRITE, 100)
    cluster = Cluster(spec, [steps]).run()
    print(cluster.clients[0].rrts())

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.client.client import Client
from repro.client.workload import Step, paper_txn_steps, single_kind_steps, txn_steps
from repro.cluster.faults import FaultSchedule
from repro.cluster.harness import Cluster, ClusterSpec
from repro.cluster.metrics import RunResult, collect
from repro.core.ballot import Ballot, ProposalNumber
from repro.core.config import ReplicaConfig
from repro.core.replica import Replica, ReplicaRole
from repro.core.requests import ClientRequest, RequestId
from repro.election.omega import OmegaElector
from repro.election.static import ManualElectorGroup, StaticElector
from repro.net.profiles import berkeley_princeton, get_profile, sysnet, wan
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import RunExport, export_run, load_export
from repro.services.base import ExecutionContext, ExecutionResult, Service
from repro.types import ReplyStatus, RequestKind, StateTransferMode

__version__ = "1.0.0"

__all__ = [
    "Ballot",
    "Client",
    "ClientRequest",
    "Cluster",
    "ClusterSpec",
    "ExecutionContext",
    "ExecutionResult",
    "FaultSchedule",
    "ManualElectorGroup",
    "MetricsRegistry",
    "OmegaElector",
    "ProposalNumber",
    "Replica",
    "ReplicaConfig",
    "ReplicaRole",
    "ReplyStatus",
    "RequestId",
    "RequestKind",
    "RunExport",
    "RunResult",
    "Service",
    "StateTransferMode",
    "StaticElector",
    "Step",
    "berkeley_princeton",
    "collect",
    "export_run",
    "load_export",
    "get_profile",
    "paper_txn_steps",
    "single_kind_steps",
    "sysnet",
    "txn_steps",
    "wan",
    "__version__",
]
