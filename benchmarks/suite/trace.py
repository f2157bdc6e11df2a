"""Host-time shares per layer: one extra repeat of a workload under cProfile.

The profiler is driven from here, around the workload's timed region only
(and, for ``tcp-write``, on the runtime's loop thread); nothing in ``src/``
knows it is being profiled. Self time is bucketed by the ``src/repro/``
package that owns the function; everything else — stdlib, C builtins such
as ``pickle.dumps``, and the benchmark's own frames — is the unattributed
rest, so the shares and the rest sum to one by construction.

cProfile charges every Python call and no C work, which shifts the
proportions toward call-heavy code: shares say where to look, the untraced
repeats say how much there is to win. ``trace.overhead_ratio`` is the
traced repeat's wall time over the untraced median.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import repro
from benchmarks.suite.spec import LAYERS
from benchmarks.suite.workloads import Repeat, Workload

_PACKAGE_ROOT = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
#: ``sim/process.py`` is the runtime-neutral ``Process``/``Env`` interface
#: every replica and client inherits, on the TCP runtime too; it is protocol
#: plumbing, not simulator, so ``sim.self_share`` stays 0 where no simulator runs.
_REASSIGNED = {os.path.join("sim", "process.py"): "core"}


def layer_of(filename: str) -> str | None:
    """The ``src/repro/`` package a code file belongs to, if it is a layer."""
    if not filename.startswith(_PACKAGE_ROOT):
        return None
    relative = filename[len(_PACKAGE_ROOT):]
    package = _REASSIGNED.get(relative, relative.split(os.sep, 1)[0])
    return package if package in LAYERS else None


def self_shares(profile: cProfile.Profile) -> dict[str, float]:
    """``<layer>.self_share`` for every layer plus ``budget.unattributed_share``."""
    self_time = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    for (filename, _line, _func), (_cc, _nc, tt, _ct, _callers) in pstats.Stats(
        profile
    ).stats.items():
        total += tt
        layer = layer_of(filename)
        if layer is not None:
            self_time[layer] += tt
    if total <= 0.0:
        raise RuntimeError("the profiler recorded no time")
    shares = {f"{layer}.self_share": value / total for layer, value in self_time.items()}
    shares["budget.unattributed_share"] = 1.0 - sum(shares.values())
    return shares


def traced_repeat(workload: Workload, seed: int, scale: float) -> tuple[Repeat, dict[str, float]]:
    """One repeat with the profiler on; returns it and its layer shares."""
    profile = cProfile.Profile()
    rep = workload.repeat(seed, scale, profile)
    return rep, self_shares(profile)
