"""Time-based NF scheduling.

Section 3: "New NFs can be attached in seconds or removed from clients as
well as scheduled to be enabled only during specific time periods."  The
:class:`NFScheduler` periodically evaluates each assignment's
:class:`TimeSchedule` and asks the Manager to enable or disable the
assignment as windows open and close.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ScheduleError
from repro.netem.simulator import PeriodicTask, Simulator


@dataclass(frozen=True)
class ScheduleWindow:
    """A half-open activation window ``[start_s, end_s)`` in simulated time."""

    start_s: float
    end_s: float

    def __post_init__(self) -> None:
        if self.end_s <= self.start_s:
            raise ScheduleError(f"window end ({self.end_s}) must be after start ({self.start_s})")

    def contains(self, now: float) -> bool:
        return self.start_s <= now < self.end_s


class TimeSchedule:
    """When an assignment should be active.

    ``always`` schedules are active forever; ``windows`` schedules are active
    only inside the listed windows; ``daily`` schedules repeat a
    seconds-of-day window with a configurable day length (useful to compress
    a day into a short simulation).  A daily window whose start is *after*
    its end wraps around the day boundary -- e.g. ``(22h, 02h)`` is a
    night-time window active from 22:00 until 02:00 the next day.
    """

    def __init__(
        self,
        windows: Sequence[ScheduleWindow] = (),
        daily_window: Optional[Tuple[float, float]] = None,
        day_length_s: float = 86_400.0,
    ) -> None:
        self.windows: List[ScheduleWindow] = list(windows)
        self.daily_window = daily_window
        if day_length_s <= 0:
            raise ScheduleError("day_length_s must be positive")
        self.day_length_s = day_length_s
        if daily_window is not None:
            start, end = daily_window
            if not (0 <= start <= day_length_s and 0 <= end <= day_length_s) or start == end:
                raise ScheduleError(f"invalid daily window {daily_window!r} for day length {day_length_s}")

    @classmethod
    def always(cls) -> "TimeSchedule":
        return cls()

    @classmethod
    def between(cls, start_s: float, end_s: float) -> "TimeSchedule":
        return cls(windows=[ScheduleWindow(start_s, end_s)])

    @classmethod
    def daily(cls, start_of_day_s: float, end_of_day_s: float, day_length_s: float = 86_400.0) -> "TimeSchedule":
        """A window repeated every day; ``start > end`` wraps past midnight."""
        return cls(daily_window=(start_of_day_s, end_of_day_s), day_length_s=day_length_s)

    def is_active(self, now: float) -> bool:
        """Should the assignment be enabled at simulated time ``now``?"""
        if not self.windows and self.daily_window is None:
            return True
        if any(window.contains(now) for window in self.windows):
            return True
        if self.daily_window is not None:
            second_of_day = now % self.day_length_s
            start, end = self.daily_window
            if start < end:
                return start <= second_of_day < end
            # Wrapping window (e.g. 22:00 -> 02:00): active on either side of
            # the day boundary.
            return second_of_day >= start or second_of_day < end
        return False


class NFScheduler:
    """Drives assignment enable/disable transitions from their schedules.

    One scheduler serves one Manager (each shard of a sharded deployment
    owns its own; the frontend aggregates them).  Every
    ``check_interval_s`` it reconciles each tracked assignment's
    :class:`TimeSchedule` against its last known activation state and calls
    ``enable_callback(assignment_id)`` / ``disable_callback(assignment_id)``
    on the edges only -- the Manager maps those onto
    ``GNFAgent.set_chain_active``, which toggles traffic steering without
    touching the containers.  ``pop`` extracts an assignment's activation
    flag for cross-shard handoffs so the adopting scheduler resumes from
    the same state instead of re-deriving (and double-counting) the
    transition.  ``transitions`` counts the edges driven, which the
    scenario digests use to pin schedule behaviour.
    """

    def __init__(
        self,
        simulator: Simulator,
        enable_callback: Callable[[str], None],
        disable_callback: Callable[[str], None],
        check_interval_s: float = 1.0,
    ) -> None:
        self.simulator = simulator
        self.enable_callback = enable_callback
        self.disable_callback = disable_callback
        self.check_interval_s = check_interval_s
        self._schedules: Dict[str, TimeSchedule] = {}
        self._active: Dict[str, bool] = {}
        self._task: Optional[PeriodicTask] = None
        self.transitions = 0

    # ----------------------------------------------------------- membership

    def add(self, assignment_id: str, schedule: TimeSchedule, currently_active: bool) -> None:
        self._schedules[assignment_id] = schedule
        self._active[assignment_id] = currently_active

    def remove(self, assignment_id: str) -> None:
        self._schedules.pop(assignment_id, None)
        self._active.pop(assignment_id, None)

    def pop(self, assignment_id: str) -> Optional[bool]:
        """Stop tracking an assignment; returns its last known active flag.

        Used by cross-shard handoffs: the adopting shard's scheduler must
        resume from the same activation state instead of re-deriving it (and
        counting a spurious transition).  ``None`` means the assignment was
        not tracked here.
        """
        self._schedules.pop(assignment_id, None)
        return self._active.pop(assignment_id, None)

    def tracked(self) -> List[str]:
        return sorted(self._schedules)

    def currently_active(self, assignment_id: str) -> bool:
        """The scheduler's last reconciled activation state for an assignment.

        Untracked assignments (no schedule) are always active.  The bundle
        upgrade orchestrator reads this at cutover time so a replacement
        chain inherits exactly the steering state the schedule asked for --
        an upgrade racing a disable window must come up unsteered.
        """
        return self._active.get(assignment_id, True)

    # -------------------------------------------------------------- control

    def start(self) -> "NFScheduler":
        if self._task is None:
            self._task = self.simulator.every(self.check_interval_s, self.evaluate)
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def evaluate(self) -> None:
        """One scheduling pass: reconcile desired vs actual activation."""
        now = self.simulator.now
        for assignment_id, schedule in self._schedules.items():
            desired = schedule.is_active(now)
            actual = self._active.get(assignment_id, False)
            if desired == actual:
                continue
            self._active[assignment_id] = desired
            self.transitions += 1
            if desired:
                self.enable_callback(assignment_id)
            else:
                self.disable_callback(assignment_id)
