"""Ballot and proposal numbers (§3.2, §3.3).

A *ballot number* identifies one leader's term: a pair ``(round, leader)``
totally ordered first by round, then by the leader's process id — two
distinct leaders can therefore never produce equal ballots.

A *proposal number* is the pair ``(ballot, instance)`` the paper attaches
to each accepted proposal: "proposal numbers are ordered lexicographically,
first by the ballot number and then by the instance number". The ordering
gives new-leader recovery a total order over everything any replica has
accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.types import InstanceId, ProcessId
from repro.util.fastpickle import KeepsWireSize, fast_pickle


# ``order=True``: each of the four comparisons is one tuple comparison of the
# fields in declaration order, which *is* the lexicographic order above. They
# run on the accept path, so none is derived from another through an extra
# Python frame (as ``functools.total_ordering`` would).
@fast_pickle
@dataclass(frozen=True, slots=True, order=True)
class Ballot(KeepsWireSize):
    """One leader term: ``(round, leader)``, totally ordered."""

    round: int
    leader: ProcessId

    #: Smaller than every real ballot; what acceptors start out promised to.
    ZERO: ClassVar["Ballot"]

    def next_for(self, leader: ProcessId) -> "Ballot":
        """The smallest ballot for ``leader`` strictly greater than self."""
        return Ballot(self.round + 1, leader)

    def __str__(self) -> str:
        return f"b({self.round},{self.leader})"


# A sentinel that compares below every ballot with round >= 0. (Assigned on
# the class, not an instance, so plain setattr on the type works despite the
# dataclass being frozen — frozen only constrains instances.)
Ballot.ZERO = Ballot(-1, "")


@fast_pickle
@dataclass(frozen=True, slots=True, order=True)
class ProposalNumber:
    """``(ballot, instance)``, ordered lexicographically (§3.3)."""

    ballot: Ballot
    instance: InstanceId

    def __str__(self) -> str:
        return f"pn({self.ballot.round},{self.ballot.leader},#{self.instance})"
