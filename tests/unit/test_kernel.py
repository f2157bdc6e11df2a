"""Unit tests for the DES kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import Kernel


class TestScheduling:
    def test_events_fire_in_time_order(self):
        k = Kernel()
        fired = []
        k.schedule(0.3, fired.append, "c")
        k.schedule(0.1, fired.append, "a")
        k.schedule(0.2, fired.append, "b")
        k.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_tie_breaking_at_same_time(self):
        k = Kernel()
        fired = []
        for tag in range(10):
            k.schedule(0.5, fired.append, tag)
        k.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self):
        k = Kernel()
        seen = []
        k.schedule(1.5, lambda: seen.append(k.now))
        k.run()
        assert seen == [1.5]
        assert k.now == 1.5

    def test_schedule_at_absolute(self):
        k = Kernel()
        seen = []
        k.schedule_at(2.0, lambda: seen.append(k.now))
        k.run()
        assert seen == [2.0]

    def test_negative_delay_rejected(self):
        k = Kernel()
        with pytest.raises(SimulationError):
            k.schedule(-0.1, lambda: None)

    def test_schedule_into_past_rejected(self):
        k = Kernel()
        k.schedule(1.0, lambda: None)
        k.run()
        with pytest.raises(SimulationError):
            k.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run(self):
        k = Kernel()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                k.schedule(0.1, chain, n + 1)

        k.schedule(0.0, chain, 0)
        k.run()
        assert fired == [0, 1, 2, 3]
        assert k.now == pytest.approx(0.3)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        k = Kernel()
        fired = []
        handle = k.schedule(0.1, fired.append, "x")
        handle.cancel()
        k.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        k = Kernel()
        handle = k.schedule(0.1, lambda: None)
        handle.cancel()
        handle.cancel()
        assert k.pending == 0

    def test_pending_counts_only_live_events(self):
        k = Kernel()
        a = k.schedule(0.1, lambda: None)
        k.schedule(0.2, lambda: None)
        assert k.pending == 2
        a.cancel()
        assert k.pending == 1

    def test_dense_cancellation_compacts_in_place_while_run_iterates(self):
        """A callback cancelling most of the heap triggers compaction under
        ``run``'s feet: the heap list object stays the same one, shrinks to
        the live entries (handles and ``post_at`` tuples alike), and the
        survivors still fire in order."""
        k = Kernel()
        fired = []
        timers = [k.schedule_at(2.0 + i * 1e-3, fired.append, ("timer", i)) for i in range(2000)]
        for i in range(100):
            k.post_at(3.0 + i * 1e-3, fired.append, ("post", i))
        heap = k._heap

        def cancel_most():
            for timer in timers[10:]:
                timer.cancel()

        k.schedule_at(1.0, cancel_most)
        k.run(until=1.5)
        assert k._heap is heap
        assert len(heap) < 2000 and k.pending == 110
        k.run()
        assert fired == [("timer", i) for i in range(10)] + [("post", i) for i in range(100)]
        assert k.pending == 0 and not heap


class TestFireAndForget:
    def test_post_at_creates_no_handle(self):
        k = Kernel()
        fired = []
        for i in range(1000):
            k.post_at(i * 1e-3, fired.append, i)
        assert k.pending == 1000
        k.run()
        assert fired == list(range(1000))
        assert k.handles_created == 0

    def test_handles_are_counted_per_cancellable_event(self):
        k = Kernel()
        k.schedule(0.1, lambda: None)
        k.schedule_at(0.2, lambda: None)
        k.post_at(0.3, lambda: None)
        assert k.handles_created == 2

    def test_post_at_without_arguments(self):
        k = Kernel()
        fired = []
        k.post_at(0.1, lambda: fired.append("bare"))
        k.run()
        assert fired == ["bare"]

    def test_post_at_into_the_past_rejected(self):
        k = Kernel()
        k.run(until=1.0)
        with pytest.raises(SimulationError):
            k.post_at(0.5, lambda: None)


class TestRun:
    def test_run_until_stops_before_later_events(self):
        k = Kernel()
        fired = []
        k.schedule(1.0, fired.append, "early")
        k.schedule(3.0, fired.append, "late")
        k.run(until=2.0)
        assert fired == ["early"]
        assert k.now == 2.0
        k.run()
        assert fired == ["early", "late"]

    def test_run_until_advances_clock_when_idle(self):
        k = Kernel()
        k.run(until=5.0)
        assert k.now == 5.0

    def test_max_events(self):
        k = Kernel()
        fired = []
        for i in range(5):
            k.schedule(0.1 * (i + 1), fired.append, i)
        k.run(max_events=2)
        assert fired == [0, 1]

    def test_max_events_does_not_park_the_clock_at_until(self):
        """Stopped short of ``until`` by ``max_events``, the clock stays at
        the last event fired: the next ``run`` must not step it back."""
        k = Kernel()
        seen = []
        for t in (1.0, 2.0, 3.0):
            k.schedule_at(t, lambda: seen.append(k.now))
        assert k.run(until=10.0, max_events=1) == 1
        assert k.now == 1.0 and k.pending == 2
        k.run()
        assert seen == [1.0, 2.0, 3.0]
        assert k.now == 3.0

    def test_schedule_between_a_short_run_and_the_next(self):
        k = Kernel()
        fired = []
        for t in (1.0, 2.0, 3.0):
            k.schedule_at(t, fired.append, t)
        k.run(until=10.0, max_events=1)
        k.schedule_at(2.5, fired.append, 2.5)  # raised "into the past" before
        k.run()
        assert fired == [1.0, 2.0, 2.5, 3.0]

    def test_until_is_reached_when_max_events_ran_out_of_due_events(self):
        """``max_events`` hit exactly as nothing else is due by ``until``:
        the interval is over, the clock moves to its end."""
        k = Kernel()
        k.schedule_at(1.0, lambda: None)
        k.schedule_at(20.0, lambda: None)
        assert k.run(until=10.0, max_events=1) == 1
        assert k.now == 10.0
        assert k.run(until=15.0, max_events=0) == 0
        assert k.now == 15.0

    def test_run_returns_processed_count(self):
        k = Kernel()
        for i in range(4):
            k.schedule(0.1, lambda: None)
        assert k.run() == 4

    def test_not_reentrant(self):
        k = Kernel()
        errors = []

        def nested():
            try:
                k.run()
            except SimulationError as exc:
                errors.append(exc)

        k.schedule(0.1, nested)
        k.run()
        assert len(errors) == 1


class TestDeterminism:
    def test_rng_streams_reproducible(self):
        a = Kernel(seed=7).rng("x")
        b = Kernel(seed=7).rng("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_rng_streams_independent_by_name(self):
        k = Kernel(seed=7)
        assert k.rng("x").random() != k.rng("y").random()

    def test_rng_streams_differ_by_seed(self):
        assert Kernel(seed=1).rng("x").random() != Kernel(seed=2).rng("x").random()

    def test_identical_schedules_identical_execution(self):
        def run_once():
            k = Kernel(seed=3)
            order = []
            rng = k.rng("jitter")
            for i in range(50):
                k.schedule(rng.random(), order.append, i)
            k.run()
            return order

        assert run_once() == run_once()
