"""§3.3 ablation — state-transfer cost vs service-state size.

The paper keeps its benchmark state small ("a few bytes") and notes that
"the overhead of transferring larger size of state was analysed in [30]",
sketching two remedies: reproduction info and deltas. This bench sweeps
the service-state size and compares write RRT and shipped payload bytes
under FULL, DELTA and REPRO transfer — showing exactly why the remedies
matter.

Payload bytes are the modelled wire size of each shipped ``StatePayload``
(``repro.transport.codec.wire_size``, the simulator's byte accounting);
the RRT model charges serialization at ~1 GB/s on top of the base
per-message CPU cost, so FULL-mode writes slow down visibly once the state
reaches hundreds of kilobytes.
"""

from __future__ import annotations

import pytest

from benchmarks._util import emit
from repro.client.workload import single_kind_steps
from repro.cluster.harness import Cluster, ClusterSpec
from repro.cluster.metrics import collect
from repro.core.messages import AcceptBatch
from repro.net.profiles import sysnet
from repro.services.noop import NoopService
from repro.sim.cpu import CpuProfile
from repro.transport.codec import wire_size
from repro.types import RequestKind, StateTransferMode
from repro.util.tables import format_table

SIZES = (100, 10_000, 1_000_000)
MODES = (StateTransferMode.FULL, StateTransferMode.DELTA, StateTransferMode.REPRO)
#: Serialization throughput used to convert payload bytes into CPU time.
BYTES_PER_SECOND = 1e9


def run(mode: StateTransferMode, state_size: int):
    profile = sysnet()
    # Charge serialization of the state into the per-message cost so the
    # latency effect of big FULL payloads is modeled, not just counted.
    extra = (state_size / BYTES_PER_SECOND) if mode is StateTransferMode.FULL else 0.0
    profile = type(profile)(
        name=profile.name,
        description=profile.description,
        replica_cpu=CpuProfile(
            send_cost=profile.replica_cpu.send_cost + extra,
            recv_cost=profile.replica_cpu.recv_cost,
        ),
        client_cpu=profile.client_cpu,
        paper_rrt=profile.paper_rrt,
        _builder=profile._builder,
        per_connection_overhead=0.0,
    )
    spec = ClusterSpec(
        profile=profile,
        seed=4,
        state_mode=mode,
        connection_scaling=False,
        checkpoint_interval=10_000,  # keep the log around to measure payloads
    )
    steps = single_kind_steps(RequestKind.WRITE, 100)
    cluster = Cluster(
        spec, [steps], service_factory=lambda: NoopService(state_size=state_size)
    )
    cluster.spec.trace  # noqa: B018 - trace not needed; bytes from log
    cluster.run()
    result = collect(cluster)
    # Average shipped payload size, from the leader's log.
    leader = cluster.leader()
    sizes = [
        wire_size(leader.log.chosen_value(i).payload)
        for i in range(leader.log.compacted_to + 1, leader.log.frontier + 1)
    ]
    mean_payload = sum(sizes) / len(sizes) if sizes else 0.0
    return result.rrt.mean, mean_payload


def compute():
    rows = []
    data = {}
    for size in SIZES:
        for mode in MODES:
            rrt, payload = run(mode, size)
            data[(mode, size)] = (rrt, payload)
            rows.append(
                [f"{size:>9,}", mode.value, f"{rrt * 1e3:.3f}", f"{payload:,.0f}"]
            )
    text = (
        "§3.3 — write RRT and shipped payload vs state size\n"
        "expected: FULL grows with state; DELTA/REPRO stay flat\n"
        + format_table(["state (bytes)", "mode", "write RRT (ms)", "payload (B)"], rows)
    )
    return text, data


@pytest.mark.benchmark(group="state_transfer")
def test_state_transfer_ablation(once):
    text, data = once(compute)
    big = SIZES[-1]
    emit("state_transfer", text,
         data={f"{mode.value}_{size}": {"rrt_s": data[(mode, size)][0],
                                        "payload_bytes": data[(mode, size)][1]}
               for size in SIZES for mode in MODES},
         metrics={
             "full_1mb_write_rrt_s": {
                 "value": data[(StateTransferMode.FULL, big)][0],
                 "unit": "s", "direction": "lower"},
             "delta_1mb_payload_bytes": {
                 "value": data[(StateTransferMode.DELTA, big)][1],
                 "unit": "B", "direction": "lower"},
         },
         profile="sysnet", protocol="basic")
    big, small = SIZES[-1], SIZES[0]
    # FULL payload scales with state; DELTA/REPRO do not.
    assert data[(StateTransferMode.FULL, big)][1] > 100 * data[(StateTransferMode.FULL, small)][1]
    for mode in (StateTransferMode.DELTA, StateTransferMode.REPRO):
        ratio = data[(mode, big)][1] / data[(mode, small)][1]
        assert 0.5 < ratio < 2.0
    # And the latency penalty of FULL at 1 MB is visible.
    assert data[(StateTransferMode.FULL, big)][0] > 1.5 * data[(StateTransferMode.DELTA, big)][0]
