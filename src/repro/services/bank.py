"""A transactional bank-accounts service, the T-Paxos showcase (§3.5).

Deterministic, but with multi-operation invariants (transfers must not be
torn), so it exercises the transaction path: per-account strict 2PL locks,
and ``("set", acct, balance)`` deltas that a commit applies at its
pipeline position.

Operations:

* ``("open", acct, balance)`` — write; create an account.
* ``("deposit", acct, amount)`` — write; returns the new balance.
* ``("withdraw", acct, amount)`` — write; returns the new balance, or
  ``None`` (no state change) when funds are insufficient.
* ``("balance", acct)`` — read.
* ``("total",)`` — read; the sum over all accounts (conservation checks).
"""

from __future__ import annotations

from typing import Any

from repro.errors import ServiceError
from repro.services.base import ExecutionContext, ExecutionResult, Service


class BankService(Service):
    """Accounts with integer balances."""

    name = "bank"

    def __init__(self) -> None:
        self.accounts: dict[str, int] = {}

    def execute(self, op: Any, ctx: ExecutionContext) -> ExecutionResult:
        kind = op[0]
        if kind == "balance":
            return ExecutionResult(reply=self.accounts.get(op[1]))
        if kind == "total":
            return ExecutionResult(reply=sum(self.accounts.values()))
        if kind == "open":
            _, acct, balance = op
            if acct in self.accounts:
                raise ServiceError(f"account {acct!r} already exists")
            self.accounts[acct] = int(balance)
            return ExecutionResult(
                reply=balance,
                delta=("set", acct, balance),
                repro=balance,
            )
        if kind == "deposit":
            _, acct, amount = op
            self._check(acct)
            self.accounts[acct] += int(amount)
            new_balance = self.accounts[acct]
            return ExecutionResult(
                reply=new_balance,
                delta=("set", acct, new_balance),
                repro=new_balance,
            )
        if kind == "withdraw":
            _, acct, amount = op
            self._check(acct)
            if self.accounts[acct] < amount:
                return ExecutionResult(reply=None, repro=None)
            self.accounts[acct] -= int(amount)
            new_balance = self.accounts[acct]
            return ExecutionResult(
                reply=new_balance,
                delta=("set", acct, new_balance),
                repro=new_balance,
            )
        raise ValueError(f"unknown bank op {op!r}")

    def _check(self, acct: str) -> None:
        if acct not in self.accounts:
            raise ServiceError(f"no such account {acct!r}")

    # ----------------------------------------------------------- state moves
    def snapshot(self) -> Any:
        return dict(self.accounts)

    def restore(self, snap: Any) -> None:
        self.accounts = dict(snap)

    def apply_delta(self, delta: Any) -> None:
        if delta is None:
            return
        if delta[0] == "set":
            self.accounts[delta[1]] = delta[2]
        else:
            raise ValueError(f"unknown bank delta {delta!r}")

    def replay(self, op: Any, repro: Any) -> Any:
        kind = op[0]
        if kind == "open":
            self.accounts[op[1]] = int(op[2])
            return repro
        if kind in ("deposit", "withdraw"):
            if repro is None:
                return None
            self.accounts[op[1]] = int(repro)
            return repro
        raise ValueError(f"cannot replay bank op {op!r}")

    def locks_for(self, op: Any) -> tuple[frozenset, frozenset]:
        kind = op[0]
        if kind == "balance":
            return frozenset({op[1]}), frozenset()
        if kind == "total":
            return frozenset({"__all__"}), frozenset()
        return frozenset(), frozenset({op[1]})

    def state_fingerprint(self) -> Any:
        return tuple(sorted(self.accounts.items()))
