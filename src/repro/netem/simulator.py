"""Deterministic discrete-event simulation kernel.

Every subsystem in the reproduction (links, container boot times, agent
heartbeats, client mobility, NF migrations) is driven by a single
:class:`Simulator` instance.  The kernel is intentionally small and
dependency-free:

* events are callbacks scheduled at an absolute simulated time,
* the queue is a heap of plain ``(time, sequence, callback, args, event)``
  tuples, so ordering is decided by C tuple comparison; the sequence number
  is unique, which breaks ties by insertion order (runs are fully
  deterministic) and means nothing after it is ever compared,
* an :class:`Event` handle exists only when asked for: :meth:`Simulator.schedule`
  attaches one (it can be cancelled or awaited), :meth:`Simulator.call_later`
  leaves the slot ``None`` for the per-packet hops that do neither,
* lightweight generator-based processes are supported for code that reads
  more naturally as sequential logic (e.g. a migration that waits for a
  checkpoint transfer to finish).

The simulated clock is a float in **seconds**.
"""

from __future__ import annotations

import heapq
import itertools
from math import inf
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple


class SimulationError(RuntimeError):
    """Raised when the simulation kernel is misused."""


def _in_the_past(time: float, now: float) -> SimulationError:
    return SimulationError(f"cannot schedule event at t={time} before current time t={now}")


def _negative_delay(delay: float) -> SimulationError:
    return SimulationError(f"cannot schedule event in the past (delay={delay})")


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and can be cancelled
    before they fire.  An event fires exactly once; its callback's return
    value is kept in :attr:`result` so processes waiting on the event can be
    resumed with it (even if they start waiting after the event fired).
    """

    __slots__ = ("time", "callback", "args", "kwargs", "cancelled", "fired", "result", "_waiters", "_simulator")

    def __init__(
        self,
        time: float,
        callback: Callable[..., Any],
        args: tuple = (),
        kwargs: Optional[dict] = None,
        simulator: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        #: ``None`` unless keyword arguments were given: the common event
        #: carries no per-event dict and fires as ``callback(*args)``.
        self.kwargs = kwargs or None
        self.cancelled = False
        self.fired = False
        self.result: Any = None
        self._waiters: Optional[List[Callable[[Any], None]]] = None
        self._simulator = simulator

    @property
    def name(self) -> str:
        """The callback's ``__name__`` (resolved on demand, not per event)."""
        return getattr(self.callback, "__name__", "event")

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling a fired event is a no-op.

        Processes already waiting on the event are resumed with ``None``
        (instead of being silently stranded for the rest of the run).
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._simulator is not None:
            self._simulator._cancelled_in_queue += 1
        if self._waiters is not None:
            waiters, self._waiters = self._waiters, None
            for waiter in waiters:
                if self._simulator is not None:
                    self._simulator.schedule(0.0, waiter, None)
                else:
                    waiter(None)

    def add_waiter(self, waiter: Callable[[Any], None]) -> None:
        """Register a callback invoked with the event's result when it fires.

        Multiple waiters are supported; they are notified in registration
        order right after the event's own callback ran.  (This is what lets
        several processes wait on the same event without clobbering each
        other -- the old implementation rebound ``callback`` instead.)
        """
        if self._waiters is None:
            self._waiters = []
        self._waiters.append(waiter)

    @property
    def pending(self) -> bool:
        """True while the event has neither fired nor been cancelled."""
        return not self.cancelled and not self.fired

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"Event({self.name!r}, t={self.time:.6f}, {state})"


class Process:
    """A generator-based simulated process.

    The wrapped generator may ``yield``:

    * a ``float``/``int`` -- sleep for that many simulated seconds,
    * an :class:`Event` -- resume immediately after the event fires (an
      already-fired event resumes at once with its result; a cancelled
      event resumes with ``None``),
    * another :class:`Process` -- resume when that process terminates.

    The value sent back into the generator after waiting on an event or a
    process is the event's callback return value / the process return value.
    """

    __slots__ = ("simulator", "generator", "name", "finished", "result", "_waiters")

    def __init__(self, simulator: "Simulator", generator: Generator, name: str = "") -> None:
        self.simulator = simulator
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False
        self.result: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    def _step(self, value: Any = None) -> None:
        if self.finished:
            return
        try:
            target = self.generator.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            for waiter in self._waiters:
                waiter(self.result)
            self._waiters.clear()
            return
        self._wait_on(target)

    def _wait_on(self, target: Any) -> None:
        if isinstance(target, (int, float)):
            self.simulator.schedule(float(target), self._step, None)
        elif isinstance(target, Event):
            if target.fired:
                # Already-fired events resume the process immediately (like
                # waiting on a finished process) instead of hanging forever.
                self.simulator.schedule(0.0, self._step, target.result)
            elif target.cancelled:
                # Cancelled events resume the waiter with None, mirroring
                # what Event.cancel() does for already-registered waiters.
                self.simulator.schedule(0.0, self._step, None)
            else:
                target.add_waiter(self._step)
        elif isinstance(target, Process):
            if target.finished:
                self.simulator.schedule(0.0, self._step, target.result)
            else:
                target._waiters.append(lambda result: self.simulator.schedule(0.0, self._step, result))
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {target!r}; "
                "yield a delay, an Event or a Process"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "finished" if self.finished else "running"
        return f"Process({self.name!r}, {state})"


class PeriodicTask:
    """Handle for a recurring callback created by :meth:`Simulator.every`."""

    __slots__ = ("simulator", "interval", "callback", "args", "kwargs", "stopped", "_event", "jitter_fn")

    def __init__(
        self,
        simulator: "Simulator",
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        jitter_fn: Optional[Callable[[], float]] = None,
    ) -> None:
        self.simulator = simulator
        self.interval = interval
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.stopped = False
        self.jitter_fn = jitter_fn
        self._event: Optional[Event] = None

    def start(self, initial_delay: Optional[float] = None) -> "PeriodicTask":
        delay = self.interval if initial_delay is None else initial_delay
        self._event = self.simulator.schedule(delay, self._fire)
        return self

    def _fire(self) -> None:
        if self.stopped:
            return
        self.callback(*self.args, **self.kwargs)
        if self.stopped:
            return
        jitter = self.jitter_fn() if self.jitter_fn is not None else 0.0
        self._event = self.simulator.schedule(max(0.0, self.interval + jitter), self._fire)

    def stop(self) -> None:
        self.stopped = True
        if self._event is not None:
            self._event.cancel()


class Simulator:
    """Deterministic discrete-event simulator.

    Example
    -------
    >>> sim = Simulator()
    >>> seen = []
    >>> _ = sim.schedule(1.0, seen.append, "a")
    >>> _ = sim.schedule(0.5, seen.append, "b")
    >>> sim.run()
    >>> seen
    ['b', 'a']
    >>> sim.now
    1.0
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        #: ``(time, sequence, callback, args, event)``; ``event`` is ``None``
        #: for :meth:`call_later` / :meth:`call_at` entries.
        self._queue: List[Tuple[float, int, Callable[..., Any], tuple, Optional[Event]]] = []
        self._sequence = itertools.count()
        self._running = False
        self._event_count = 0
        self._cancelled_in_queue = 0

    # ------------------------------------------------------------------ clock

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events that have fired so far."""
        return self._event_count

    @property
    def pending_events(self) -> int:
        """Number of **live** events still on the queue.

        Cancelled events linger in the heap until their time comes up (lazy
        deletion), but they are excluded here so teardown assertions and
        benchmark reports count only events that will actually fire.
        """
        return len(self._queue) - self._cancelled_in_queue

    @property
    def queued_events(self) -> int:
        """Raw queue length, including cancelled-but-not-yet-popped events."""
        return len(self._queue)

    # ------------------------------------------------------------- scheduling

    def call_later(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` seconds from now, with no handle.

        For callers that never cancel or wait on what they post (the
        per-packet hops): the heap entry carries no :class:`Event`.
        """
        if delay < 0:
            raise _negative_delay(delay)
        heapq.heappush(self._queue, (self._now + delay, next(self._sequence), callback, args, None))

    def call_at(self, time: float, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` at an absolute simulated time, with no handle."""
        if time < self._now:
            raise _in_the_past(time, self._now)
        heapq.heappush(self._queue, (time, next(self._sequence), callback, args, None))

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback(*args, **kwargs)`` ``delay`` seconds from now."""
        if delay < 0:
            raise _negative_delay(delay)
        time = self._now + delay
        event = Event(time, callback, args, kwargs, self)
        heapq.heappush(self._queue, (time, next(self._sequence), callback, args, event))
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> Event:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self._now:
            raise _in_the_past(time, self._now)
        event = Event(time, callback, args, kwargs, self)
        heapq.heappush(self._queue, (time, next(self._sequence), callback, args, event))
        return event

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a generator-based :class:`Process` immediately."""
        proc = Process(self, generator, name=name)
        self.schedule(0.0, proc._step, None)
        return proc

    def every(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        initial_delay: Optional[float] = None,
        jitter_fn: Optional[Callable[[], float]] = None,
        **kwargs: Any,
    ) -> PeriodicTask:
        """Run ``callback`` every ``interval`` seconds until the task is stopped."""
        if interval <= 0:
            raise SimulationError(f"periodic interval must be positive, got {interval}")
        task = PeriodicTask(self, interval, callback, args, kwargs, jitter_fn=jitter_fn)
        return task.start(initial_delay=initial_delay)

    # ---------------------------------------------------------------- running

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once the clock would advance past this time.  Events at
            exactly ``until`` are executed.  ``None`` runs to queue
            exhaustion.
        max_events:
            Safety valve -- stop after this many events.  A run stopped by
            it leaves the clock at the last fired event (not at ``until``),
            so the events still queued fire later without time going back.

        Returns the simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        time_limit = inf if until is None else until
        count_limit = inf if max_events is None else self._event_count + max_events
        capped = False
        try:
            while queue:
                if queue[0][0] > time_limit:
                    break
                time, _, callback, args, event = pop(queue)
                if event is None:
                    self._now = time
                    callback(*args)
                    self._event_count = count = self._event_count + 1
                else:
                    if event.cancelled:
                        self._cancelled_in_queue -= 1
                        continue
                    self._now = time
                    event.fired = True
                    kwargs = event.kwargs
                    if kwargs is None:
                        result = callback(*args)
                    else:
                        result = callback(*args, **kwargs)
                    event.result = result
                    self._event_count = count = self._event_count + 1
                    if event._waiters is not None:
                        waiters, event._waiters = event._waiters, None
                        for waiter in waiters:
                            waiter(result)
                if count >= count_limit:
                    capped = True
                    break
        finally:
            self._running = False
        if until is not None and not capped and self._now < until:
            self._now = until
        return self._now

    def run_for(self, duration: float, max_events: Optional[int] = None) -> float:
        """Run for ``duration`` additional simulated seconds."""
        return self.run(until=self._now + duration, max_events=max_events)

    def drain(self, events: Iterable[Event]) -> None:
        """Cancel a collection of events (convenience for teardown)."""
        for event in events:
            event.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Simulator(now={self._now:.6f}, pending={len(self._queue)})"
