"""Greedy minimization of a failing nemesis schedule.

Given a schedule whose trial violated some invariant, the shrinker
searches for a *smaller* schedule that still violates the **same**
invariant — the minimal repro a human actually wants to read. Passes, run
to fixpoint:

1. **Drop events** — remove one event at a time (largest index first, so
   cleanup events go before the faults they pair with); keep the removal
   if the trial still fails the same way.
2. **Reduce workload** — fewer clients, then fewer requests per client.
3. **Compress time** — pull every event proportionally toward t=0 and
   shorten the horizon, so the repro doesn't spend simulated seconds
   doing nothing.

Every candidate is evaluated by actually re-running the deterministic
trial, so a shrunk schedule is *known* failing, not assumed. The total
number of trial runs is bounded by ``budget``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.chaos.runner import ChaosOptions, ChaosResult, run_with_schedule
from repro.chaos.schedule import NemesisSchedule


@dataclass
class ShrinkOutcome:
    """The minimized repro plus bookkeeping about the search."""

    schedule: NemesisSchedule
    options: ChaosOptions
    result: ChaosResult
    invariant: str
    trials: int
    history: list[str] = field(default_factory=list)

    @property
    def events(self) -> int:
        return len(self.schedule)


def _fails_same_way(result: ChaosResult, invariant: str) -> bool:
    return any(v.invariant == invariant for v in result.violations)


def shrink(
    schedule: NemesisSchedule,
    options: ChaosOptions,
    invariant: str | None = None,
    budget: int = 200,
    on_progress: Callable[[str], None] | None = None,
) -> ShrinkOutcome:
    """Minimize ``schedule`` while it still violates ``invariant``.

    ``invariant`` defaults to the first violation of the initial run.
    Raises ``ValueError`` when the initial trial does not fail at all.
    """
    trials = 0
    history: list[str] = []

    def note(message: str) -> None:
        history.append(message)
        if on_progress is not None:
            on_progress(message)

    def attempt(
        candidate: NemesisSchedule, candidate_options: ChaosOptions
    ) -> ChaosResult | None:
        """Run a candidate; return its result iff it still fails the same
        way and the budget allows."""
        nonlocal trials
        if trials >= budget:
            return None
        trials += 1
        result = run_with_schedule(candidate, candidate_options)
        assert target is not None
        return result if _fails_same_way(result, target) else None

    target = invariant
    baseline = run_with_schedule(schedule, options)
    trials += 1
    if not baseline.violations:
        raise ValueError("schedule does not fail; nothing to shrink")
    if target is None:
        target = baseline.violations[0].invariant
    elif not _fails_same_way(baseline, target):
        raise ValueError(
            f"schedule does not violate {target!r}; it violates "
            f"{sorted({v.invariant for v in baseline.violations})}"
        )
    note(
        f"baseline: {len(schedule)} events, target invariant {target!r}"
    )

    best_schedule = schedule
    best_options = options
    best_result = baseline

    def drop_events() -> None:
        """Drop one event at a time, to fixpoint."""
        nonlocal best_schedule, best_result
        changed = True
        while changed and trials < budget:
            changed = False
            for index in reversed(range(len(best_schedule.events))):
                events = (
                    best_schedule.events[:index] + best_schedule.events[index + 1:]
                )
                candidate = best_schedule.with_events(events)
                result = attempt(candidate, best_options)
                if result is not None:
                    dropped = best_schedule.events[index]
                    best_schedule, best_result = candidate, result
                    changed = True
                    note(f"dropped {dropped.describe()} -> {len(events)} events")

    # Pass 1: drop events.
    drop_events()
    # Pass 2: reduce the workload (fewer clients, then fewer requests).
    while best_options.n_clients > 1 and trials < budget:
        candidate_options = dataclasses.replace(
            best_options, n_clients=best_options.n_clients - 1
        )
        result = attempt(best_schedule, candidate_options)
        if result is None:
            break
        best_options, best_result = candidate_options, result
        note(f"reduced to {best_options.n_clients} client(s)")
    while best_options.requests_per_client > 1 and trials < budget:
        candidate_options = dataclasses.replace(
            best_options,
            requests_per_client=max(1, best_options.requests_per_client // 2),
        )
        result = attempt(best_schedule, candidate_options)
        if result is None:
            break
        best_options, best_result = candidate_options, result
        note(f"reduced to {best_options.requests_per_client} request(s)/client")

    # Pass 3: compress time toward t=0 (repros should not idle).
    for factor in (0.25, 0.5, 0.75):
        if trials >= budget:
            break
        horizon = max(best_options.horizon * factor, 0.05)
        scale = horizon / best_options.horizon
        events = tuple(
            dataclasses.replace(
                event,
                at=round(event.at * scale, 4),
                duration=round(event.duration * scale, 4),
            )
            for event in best_schedule.events
        )
        candidate = dataclasses.replace(
            best_schedule, horizon=horizon, events=events
        )
        candidate_options = dataclasses.replace(best_options, horizon=horizon)
        result = attempt(candidate, candidate_options)
        if result is not None:
            best_schedule, best_options, best_result = (
                candidate, candidate_options, result,
            )
            note(f"compressed horizon to {horizon:g}s")
            break

    # One more drop pass: compression may have made more events redundant.
    drop_events()

    note(
        f"minimized to {len(best_schedule)} events in {trials} trials"
    )
    assert target is not None
    return ShrinkOutcome(
        schedule=best_schedule,
        options=best_options,
        result=best_result,
        invariant=target,
        trials=trials,
        history=history,
    )
