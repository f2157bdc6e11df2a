"""The instrumentation handle: one run's two observers, handed to every
component at construction.

Whoever builds a run builds one :class:`Obs` and passes it down as the
``obs=`` keyword; a component unpacks it once in ``__init__`` into plain
``metrics`` / ``tracer`` attributes and never has them replaced
afterwards. :data:`NULL_OBS` — both observers disabled — is the default
everywhere, so a component built bare records nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.obs.registry import NULL_REGISTRY, MetricsRegistry, Scope
from repro.obs.tracing import NULL_TRACER, NullTracer, Tracer


@dataclass(frozen=True, slots=True)
class Obs:
    """The metrics sink and causal tracer of one run."""

    #: The run's registry, or one process's :class:`Scope` of it.
    metrics: MetricsRegistry | Scope = NULL_REGISTRY
    tracer: Tracer | NullTracer = NULL_TRACER

    def scoped(self, name: str) -> "Obs":
        """This (unscoped) handle with its metrics narrowed to
        ``proc.<name>.*``: what the builder of a process or group hands it."""
        return replace(self, metrics=self.metrics.scope(name))


#: Everything off: the default ``obs=`` of every component.
NULL_OBS = Obs()
