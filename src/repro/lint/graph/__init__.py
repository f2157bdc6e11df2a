"""The analysis: facts, index, call graph, and the rules that query them.

:data:`RULES` is the catalogue — the one place a rule is registered.
"""

from repro.lint.graph.base import Rule
from repro.lint.graph.msgflow import BarrierDominance, SendHandlerPairing
from repro.lint.graph.syntax import CoreLayering, HashOrderIteration
from repro.lint.graph.taint import AmbientReach

#: Every rule, ordered by rule id.
RULES: tuple[type[Rule], ...] = (
    AmbientReach,        # DET001
    HashOrderIteration,  # DET003
    SendHandlerPairing,  # MSG102
    CoreLayering,        # PROTO001
    BarrierDominance,    # PROTO101
)


def all_project_rules() -> list[Rule]:
    """Fresh instances of every rule, sorted by id."""
    return [rule() for rule in RULES]
