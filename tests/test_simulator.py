"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import functools
import random

import pytest

from repro.netem.simulator import Event, Process, SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_starts_at_custom_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "late")
    sim.schedule(1.0, seen.append, "early")
    sim.run()
    assert seen == ["early", "late"]


def test_equal_time_events_fire_in_insertion_order():
    sim = Simulator()
    seen = []
    for label in ("a", "b", "c"):
        sim.schedule(1.0, seen.append, label)
    sim.run()
    assert seen == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    sim.schedule(3.5, lambda: None)
    sim.run()
    assert sim.now == pytest.approx(3.5)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    event = sim.schedule(1.0, seen.append, "x")
    event.cancel()
    sim.run()
    assert seen == []
    assert not event.pending


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(10.0, seen.append, "b")
    sim.run(until=5.0)
    assert seen == ["a"]
    assert sim.now == pytest.approx(5.0)
    sim.run()
    assert seen == ["a", "b"]


def test_run_for_advances_relative_time():
    sim = Simulator()
    sim.run_for(2.0)
    assert sim.now == pytest.approx(2.0)
    sim.run_for(3.0)
    assert sim.now == pytest.approx(5.0)


def test_max_events_limit():
    sim = Simulator()
    seen = []
    for index in range(10):
        sim.schedule(float(index), seen.append, index)
    sim.run(max_events=3)
    assert len(seen) == 3


def test_events_processed_counter():
    sim = Simulator()
    for index in range(5):
        sim.schedule(float(index), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_callback_arguments_forwarded():
    sim = Simulator()
    captured = {}
    sim.schedule(1.0, lambda a, b=None: captured.update({"a": a, "b": b}), 1, b=2)
    sim.run()
    assert captured == {"a": 1, "b": 2}


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(1.0, seen.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == pytest.approx(2.0)


def test_periodic_task_fires_repeatedly_and_stops():
    sim = Simulator()
    ticks = []
    task = sim.every(1.0, lambda: ticks.append(sim.now))
    sim.run(until=5.5)
    assert len(ticks) == 5
    task.stop()
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert len(ticks) == 5


def test_periodic_task_initial_delay():
    sim = Simulator()
    ticks = []
    sim.every(1.0, lambda: ticks.append(sim.now), initial_delay=0.5)
    sim.run(until=2.6)
    assert ticks == pytest.approx([0.5, 1.5, 2.5])


def test_periodic_interval_must_be_positive():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(0.0, lambda: None)


def test_process_sleeps_between_yields():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(("start", sim.now))
        yield 1.5
        trace.append(("mid", sim.now))
        yield 2.5
        trace.append(("end", sim.now))

    sim.process(worker())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 1.5), ("end", 4.0)]


def test_process_returns_value_and_finishes():
    sim = Simulator()

    def worker():
        yield 1.0
        return 42

    proc = sim.process(worker())
    sim.run()
    assert proc.finished
    assert proc.result == 42


def test_process_can_wait_on_another_process():
    sim = Simulator()
    order = []

    def inner():
        yield 2.0
        order.append("inner-done")
        return "payload"

    def outer():
        result = yield sim.process(inner())
        order.append(("outer-resumed", result, sim.now))

    sim.process(outer())
    sim.run()
    assert order[0] == "inner-done"
    assert order[1] == ("outer-resumed", "payload", 2.0)


def test_process_can_wait_on_event():
    sim = Simulator()
    resumed = []

    def worker(event):
        result = yield event
        resumed.append((sim.now, result))

    event = sim.schedule(2.0, lambda: "fired-result")
    sim.process(worker(event))
    sim.run()
    assert resumed == [(2.0, "fired-result")]


def test_process_waiting_on_already_fired_event_resumes_immediately():
    """A fired event behaves like a finished process: resume, don't hang."""
    sim = Simulator()
    event = sim.schedule(1.0, lambda: 99)
    sim.run()
    resumed = []

    def worker():
        result = yield event
        resumed.append((sim.now, result))

    sim.process(worker())
    sim.run()
    assert resumed == [(1.0, 99)]


def test_two_processes_can_wait_on_the_same_event():
    """Waiters are chained; the second process must not clobber the first."""
    sim = Simulator()
    event = sim.schedule(1.0, lambda: "shared")
    resumed = []

    def worker(label):
        result = yield event
        resumed.append((label, result))

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.run()
    assert sorted(resumed) == [("a", "shared"), ("b", "shared")]


def test_process_waiting_on_cancelled_event_resumes_with_none():
    sim = Simulator()
    event = sim.schedule(5.0, lambda: None)
    event.cancel()
    resumed = []

    def worker():
        result = yield event
        resumed.append(result)

    sim.process(worker())
    sim.run()
    assert resumed == [None]


def test_cancel_after_wait_resumes_waiting_process():
    """Cancelling an event a process is already waiting on must not strand it."""
    sim = Simulator()
    event = sim.schedule(5.0, lambda: "never")
    resumed = []

    def worker():
        result = yield event
        resumed.append((sim.now, result))

    sim.process(worker())
    sim.schedule(1.0, event.cancel)
    sim.run()
    assert resumed == [(1.0, None)]


def test_event_waiter_does_not_disturb_callback_result():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: 7)
    event.add_waiter(lambda result: None)
    sim.run()
    assert event.result == 7


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    live = sim.schedule(1.0, lambda: None)
    doomed = sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    assert sim.queued_events == 2
    doomed.cancel()
    assert sim.pending_events == 1
    assert sim.queued_events == 2  # lazy deletion keeps it in the heap
    sim.run()
    assert sim.pending_events == 0
    assert sim.queued_events == 0
    assert live.fired


def test_double_cancel_does_not_skew_live_count():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.pending_events == 1


def test_process_invalid_yield_raises():
    sim = Simulator()

    def worker():
        yield "not a delay"

    sim.process(worker())
    with pytest.raises(SimulationError):
        sim.run()


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_drain_cancels_events():
    sim = Simulator()
    seen = []
    events = [sim.schedule(1.0, seen.append, index) for index in range(3)]
    sim.drain(events)
    sim.run()
    assert seen == []


# ------------------------------------------------------- kernel contract
#
# The heap holds plain ``(time, sequence, callback, args, event)`` tuples:
# ordering must be decided by time and insertion sequence alone, never by
# comparing callbacks or events.


class _Recorder:
    def __init__(self):
        self.seen = []

    def note(self, index):
        self.seen.append(index)


def test_colliding_timestamps_fire_in_insertion_order_with_unorderable_callbacks():
    sim = Simulator()
    recorder = _Recorder()
    seen = recorder.seen
    makers = (
        lambda index: (lambda: seen.append(index), ()),  # a fresh lambda per event
        lambda index: (recorder.note, (index,)),  # bound method
        lambda index: (functools.partial(recorder.note, index), ()),  # partial (no __name__)
    )
    timestamps = (0.0, 0.5, 0.5, 2.0)  # heavy collisions, including at t=now
    for index in range(10_000):
        callback, args = makers[index % 3](index)
        sim.schedule_at(timestamps[index % 4], callback, *args)
    sim.run()
    expected = sorted(range(10_000), key=lambda index: (timestamps[index % 4], index))
    assert seen == expected


def test_same_time_events_scheduled_from_a_callback_run_after_the_queued_ones():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(0.0, seen.append, "child")

    sim.schedule(1.0, first)
    sim.schedule(1.0, seen.append, "second")
    sim.run()
    assert seen == ["first", "second", "child"]


def test_events_processed_is_exact_inside_callbacks_and_after_max_events():
    sim = Simulator()
    readings = []
    for index in range(10):
        sim.schedule(float(index), lambda: readings.append(sim.events_processed))
    sim.run(max_events=4)
    # A callback sees the events that fired before it.
    assert readings == [0, 1, 2, 3]
    assert sim.events_processed == 4
    assert sim.pending_events == 6
    sim.run(max_events=1)
    assert sim.events_processed == 5
    sim.run()
    assert readings == list(range(10))
    assert sim.events_processed == 10


def test_live_and_queued_counts_match_a_brute_count_under_interleaved_cancel():
    sim = Simulator()
    rng = random.Random(7)
    events = []

    def check():
        # Live events are counted from the handles alone; the lazily deleted
        # remainder from the event slot of the heap's
        # (time, sequence, callback, args, event) entries.
        assert sim.pending_events == sum(1 for event in events if event.pending)
        lingering = sum(1 for entry in sim._queue if entry[4] is not None and entry[4].cancelled)
        assert sim.queued_events - sim.pending_events == lingering

    def churn():
        events.append(sim.schedule(rng.random(), churn_leaf))
        rng.choice(events).cancel()  # may hit fired, cancelled or pending events
        check()

    def churn_leaf():
        check()

    for _ in range(300):
        events.append(sim.schedule(rng.random() * 5.0, churn))
        if rng.random() < 0.3:
            rng.choice(events).cancel()
        check()
    sim.run(until=2.5)
    check()
    sim.run()
    assert sim.pending_events == sim.queued_events == 0


def test_keyword_callbacks_and_periodic_kwargs_still_work():
    sim = Simulator()
    captured = []
    plain = sim.schedule(1.0, lambda: "no-kwargs")
    keyed = sim.schedule(1.0, lambda a, scale=1: a * scale, 3, scale=5)
    task = sim.every(1.0, lambda tag, extra=None: captured.append((tag, extra)), "tick", extra="x")
    sim.run(until=3.0)
    task.stop()
    assert plain.kwargs is None  # no per-event dict unless keywords were given
    assert keyed.kwargs == {"scale": 5}
    assert (plain.result, keyed.result) == ("no-kwargs", 15)
    assert captured == [("tick", "x")] * 3


def test_event_name_is_resolved_from_the_callback_on_demand():
    sim = Simulator()
    recorder = _Recorder()

    def named():
        return None

    assert sim.schedule(1.0, named).name == "named"
    assert sim.schedule(1.0, recorder.note, 1).name == "note"
    assert sim.schedule(1.0, functools.partial(named)).name == "event"


def test_rejected_schedules_leave_the_queue_untouched():
    sim = Simulator(start_time=10.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(9.999, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1e-9, lambda: None)
    assert sim.queued_events == 0
    sim.schedule_at(10.0, lambda: None)  # "now" is still allowed
    sim.run()
    assert sim.events_processed == 1


def test_a_run_capped_by_max_events_never_moves_the_clock_backwards():
    sim = Simulator()
    fired = []
    for time in (1.0, 2.0, 3.0):
        sim.schedule_at(time, lambda: fired.append(sim.now))
    sim.run(until=10.0, max_events=1)
    # Stopped on the cap with two events still due: the clock stays at the
    # last fired event instead of jumping to ``until``.
    assert fired == [1.0] and sim.now == 1.0 and sim.pending_events == 2
    sim.schedule_at(1.0, lambda: fired.append(sim.now))  # >= the last fired event
    sim.schedule_at(5.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.0, 1.0, 2.0, 3.0, 5.0]
    assert fired == sorted(fired)
    # A run that ends because the queue emptied still advances to ``until``.
    assert sim.run(until=20.0, max_events=100) == 20.0


def test_handle_free_calls_share_the_heap_order_and_the_event_count():
    sim = Simulator()
    seen = []
    events = []
    for index in range(12):
        kind = index % 4
        if kind == 0:
            sim.call_at(1.0, seen.append, index)
        elif kind == 1:
            events.append(sim.schedule_at(1.0, seen.append, index))
        elif kind == 2:
            sim.call_later(1.0, seen.append, index)
        else:
            events.append(sim.schedule(1.0, seen.append, index))
    assert sim.call_at(2.0, seen.append, "late") is None
    assert sim.call_later(2.0, seen.append, "later") is None
    assert sim.pending_events == 14
    sim.run()
    # One timestamp, two kinds of entry: insertion order decides.
    assert seen == list(range(12)) + ["late", "later"]
    assert sim.events_processed == 14
    assert all(event.fired for event in events)
    with pytest.raises(SimulationError):
        sim.call_at(1.0, seen.append, "past")
    with pytest.raises(SimulationError):
        sim.call_later(-1e-9, seen.append, "negative")
    with pytest.raises(TypeError):
        sim.call_later(1.0, seen.append, key="no kwargs")
    assert sim.queued_events == 0


def test_only_events_can_be_cancelled_or_awaited():
    sim = Simulator()
    seen = []
    doomed = sim.schedule(1.0, seen.append, "cancelled")
    sim.call_later(1.0, seen.append, "handle-free")
    awaited = sim.schedule(2.0, lambda: "result")
    doomed.cancel()
    assert sim.pending_events == 2

    def waiter():
        seen.append((yield awaited))

    sim.process(waiter())
    sim.run()
    assert seen == ["handle-free", "result"]
    assert sim.events_processed == 3  # the handle-free call, the awaited event, the process kick
    assert sim.pending_events == sim.queued_events == 0
