"""Bytecodes per request: the noise-free column of the perf ledger.

``python3 benchmarks/opcount.py <workload> [--requests N] [--top K]`` runs
one repeat of a simulated suite workload (the shape ``benchmarks/suite``
times, imported read-only) with CPython's opcode tracing switched on around
``Cluster.run()``, and prints what one completed request cost the
interpreter: bytecodes in total, by layer (the suite's ``src/repro``
package buckets), by file and by function, next to the counts the run's own registry reports (WAL appends,
kernel events, messages, modelled bytes) and the objects only the cyclic
collector could free.

Everything printed is a count made by the program, so two runs of one
commit print identical bytes (CI ``cmp``s them) and two commits differ by
exactly the work the change added or removed — no host clock is read.
A count says nothing about waiting or about time spent inside C calls;
it stands beside the suite's ``req_per_host_s``, never in its place.
The numbers are specific to the interpreter version (printed in the header).
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
from collections import Counter
from types import CodeType, FrameType
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parents[1]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.suite.trace import layer_of  # noqa: E402
from benchmarks.suite.workloads import WORKLOADS  # noqa: E402

SRC = str(ROOT / "src" / "repro") + "/"
_THIS = __file__
#: Requests one repeat attempts at ``scale=1.0`` (benchmarks/suite/README.md).
FULL_REQUESTS = {
    "sim-write": 4000,
    "sim-read": 6400,
    "sim-txn": 6400,
    "sim-shard-sync": 2000,
    "sim-failover": 4800,
}


class OpcodeCounter:
    """Stands where ``run_sim`` expects a ``cProfile.Profile``: it is enabled
    and disabled exactly around each ``Cluster.run()``."""

    def __init__(self) -> None:
        self.by_code: Counter[CodeType] = Counter()
        #: Unreachable objects the collector found after the timed region,
        #: having been off throughout it: cyclic garbage the run made.
        self.cyclic_garbage = 0

    def _on_call(self, frame: FrameType, event: str, arg: Any) -> Any:
        if frame.f_code.co_filename == _THIS:
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return self._on_opcode

    def _on_opcode(self, frame: FrameType, event: str, arg: Any) -> Any:
        if event == "opcode":
            self.by_code[frame.f_code] += 1
        return self._on_opcode

    def enable(self) -> None:
        gc.collect()
        gc.disable()
        sys.settrace(self._on_call)

    def disable(self) -> None:
        sys.settrace(None)
        self.cyclic_garbage += gc.collect()
        gc.enable()


def _source(code: CodeType) -> str:
    """Where a code object comes from: its path below ``src/repro``, or
    the bare file name of anything else (the standard library, dataclass
    ``__init__``s compiled from ``<string>``). Code a module compiles at
    run time is named ``<module file>:<what>`` and shows as that."""
    name = code.co_filename
    return name.removeprefix(SRC) if name.startswith(SRC) else pathlib.Path(name).name


def _table(title: str, rows: list[tuple[str, int]], requests: int, total: int) -> None:
    print(f"\n{title}")
    width = max(len(name) for name, _ in rows)
    for name, count in rows:
        print(f"  {name:<{width}}  {count / requests:>10.1f}  {count / total:>6.1%}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(FULL_REQUESTS))
    parser.add_argument("--requests", type=int, default=1000,
                        help="requests to attempt, rounded to the workload's shape (default 1000)")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--top", type=int, default=25, help="functions to list (default 25)")
    args = parser.parse_args(argv)

    counter = OpcodeCounter()
    scale = args.requests / FULL_REQUESTS[args.workload]
    rep = WORKLOADS[args.workload].repeat(args.seed, scale, counter)
    if rep.problems or rep.ok != rep.attempted or not rep.ok:
        print(f"{args.workload}: run failed: {rep.problems or 'requests not OK'}", file=sys.stderr)
        return 1

    requests = rep.ok
    total = sum(counter.by_code.values())
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"{args.workload} seed={args.seed}: {requests} requests, CPython {version}")
    print(f"  bytecodes/request        {total / requests:>10.1f}")
    for label, name in (
        ("appends/request", "storage.appends_per_req"),
        ("events/request", "sim.events_per_req"),
        ("messages/request", "net.msgs_per_req"),
        ("modelled bytes/request", "net.bytes_per_req"),
    ):
        print(f"  {label:<24} {rep.counts[name]:>10.4f}")
    print(f"  cyclic garbage/request   {counter.cyclic_garbage / requests:>10.4f}")

    by_package: Counter[str] = Counter()
    by_file: Counter[str] = Counter()
    by_function: Counter[str] = Counter()
    for code, count in counter.by_code.items():
        source = _source(code)
        # The suite's layers, so this table lines up with its *.self_share.
        by_package[layer_of(code.co_filename) or "(outside)"] += count
        by_file[source.partition(":<")[0]] += count  # generated code: its module
        by_function[f"{source}::{code.co_qualname}"] += count

    def ranked(counts: Counter[str]) -> list[tuple[str, int]]:
        return sorted(counts.items(), key=lambda item: (-item[1], item[0]))

    _table("bytecodes/request by package", ranked(by_package), requests, total)
    _table("bytecodes/request by file", ranked(by_file)[: args.top], requests, total)
    _table("bytecodes/request by function", ranked(by_function)[: args.top], requests, total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
