"""Kernel event-ordering properties (hypothesis).

The determinism contract the whole simulator stands on:

* events scheduled for the same virtual time fire in **schedule order**
  (FIFO tie-breaking), regardless of which scheduling API created them;
* cancelling any subset of events never perturbs the relative order of
  the survivors — including cancellations issued *by* event callbacks
  mid-run, and cancellations of already-fired events (no-ops).

These became load-bearing with the slot-indexed cancellation, in-place
heap compaction and handle-less ``post_at`` events: each optimization must
be invisible at this level.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.kernel import Kernel

#: Small time grid: dense collisions exercise the FIFO tie-break hard.
times = st.lists(st.sampled_from([0.0, 0.001, 0.002, 0.003]), min_size=1, max_size=40)


@settings(max_examples=200, deadline=None)
@given(times=times)
def test_same_timestamp_fires_in_schedule_order(times):
    kernel = Kernel()
    fired: list[int] = []
    for index, time in enumerate(times):
        kernel.schedule_at(time, fired.append, index)
    kernel.run()
    expected = [i for i, _ in sorted(enumerate(times), key=lambda p: (p[1], p[0]))]
    assert fired == expected


@settings(max_examples=200, deadline=None)
@given(times=times, data=st.data())
def test_post_at_and_schedule_at_share_one_fifo_order(times, data):
    """The handle-less fast path must not get its own ordering domain
    (``use_pool``: the event goes through ``post_at``)."""
    posted = data.draw(st.lists(st.booleans(), min_size=len(times), max_size=len(times)))
    kernel = Kernel()
    fired: list[int] = []
    for index, (time, use_pool) in enumerate(zip(times, posted)):
        if use_pool:
            kernel.post_at(time, fired.append, index)
        else:
            kernel.schedule_at(time, fired.append, index)
    kernel.run()
    expected = [i for i, _ in sorted(enumerate(times), key=lambda p: (p[1], p[0]))]
    assert fired == expected


@settings(max_examples=200, deadline=None)
@given(times=times, data=st.data())
def test_upfront_cancellation_never_perturbs_survivors(times, data):
    """Fired survivors == a run that never scheduled the cancelled events."""
    cancel = data.draw(st.lists(st.booleans(), min_size=len(times), max_size=len(times)))

    kernel = Kernel()
    fired: list[int] = []
    handles = [kernel.schedule_at(t, fired.append, i) for i, t in enumerate(times)]
    for handle, dead in zip(handles, cancel):
        if dead:
            handle.cancel()
    kernel.run()

    reference_kernel = Kernel()
    reference: list[int] = []
    for index, time in enumerate(times):
        if not cancel[index]:
            reference_kernel.schedule_at(time, reference.append, index)
    reference_kernel.run()

    assert fired == reference


@settings(max_examples=150, deadline=None)
@given(
    times=times,
    data=st.data(),
)
def test_mid_run_cancellation_matches_model(times, data):
    """Callbacks cancelling other events behave like the obvious model:
    walk events in (time, schedule order); a fired event's targets are
    dead from then on; cancelling an already-fired event is a no-op."""
    n = len(times)
    targets = data.draw(
        st.lists(
            st.lists(st.integers(0, n - 1), max_size=3),
            min_size=n,
            max_size=n,
        )
    )

    kernel = Kernel()
    fired: list[int] = []
    handles = []

    def fire(index: int) -> None:
        fired.append(index)
        for victim in targets[index]:
            handles[victim].cancel()

    for index, time in enumerate(times):
        handles.append(kernel.schedule_at(time, fire, index))
    kernel.run()

    order = [i for i, _ in sorted(enumerate(times), key=lambda p: (p[1], p[0]))]
    dead: set[int] = set()
    expected = []
    for index in order:
        if index in dead:
            continue
        expected.append(index)
        dead.update(targets[index])
    assert fired == expected

    # Idempotent-cancel bookkeeping must survive the churn: draining the
    # kernel leaves no pending events and an internally consistent count.
    assert kernel.pending == 0


@settings(max_examples=50, deadline=None)
@given(rounds=st.integers(2, 12), width=st.integers(1, 16))
def test_post_at_traffic_creates_no_handles(rounds, width):
    """Self-sustaining post_at chains never construct an EventHandle, from
    the first event on; timers interleaved with them cost one each."""
    kernel = Kernel()

    def repost(round_index: int) -> None:
        if round_index < rounds:
            kernel.post_at(kernel.now + 0.001, repost, round_index + 1)

    for _ in range(width):
        kernel.post_at(0.0, repost, 0)
    timers = [kernel.schedule_at(0.0005 * i, lambda: None) for i in range(width)]
    kernel.run()
    assert kernel.events_processed == width * (rounds + 1) + len(timers)
    assert kernel.handles_created == len(timers)
