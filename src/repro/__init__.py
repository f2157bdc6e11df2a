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

The quick-tour names are served from the modules that define them, each
imported the first time one of its names is used (PEP 562), so ``import
repro.sim.kernel`` loads the kernel and what it imports, nothing more. Every
other name is imported from its defining module.
"""

import importlib

__version__ = "1.0.0"

#: defining module -> the names ``from repro import ...`` serves from it.
_MODULES = {
    "repro.client.client": ("Client",),
    "repro.client.workload": ("Step", "paper_txn_steps", "single_kind_steps", "txn_steps"),
    "repro.cluster.faults": ("FaultSchedule",),
    "repro.cluster.harness": ("Cluster", "ClusterSpec"),
    "repro.cluster.metrics": ("RunResult", "collect"),
    "repro.core.ballot": ("Ballot", "ProposalNumber"),
    "repro.core.config": ("ReplicaConfig",),
    "repro.core.replica": ("Replica", "ReplicaRole"),
    "repro.core.requests": ("ClientRequest", "RequestId"),
    "repro.election.omega": ("OmegaElector",),
    "repro.election.static": ("ManualElectorGroup", "StaticElector"),
    "repro.net.profiles": ("berkeley_princeton", "get_profile", "sysnet", "wan"),
    "repro.obs.registry": ("MetricsRegistry",),
    "repro.obs.timeline": ("RunExport", "export_run", "load_export"),
    "repro.services.base": ("ExecutionContext", "ExecutionResult", "Service"),
    "repro.types": ("ReplyStatus", "RequestKind", "StateTransferMode"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)
