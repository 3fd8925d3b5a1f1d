"""Manager-side notification centre.

Section 3: "individual NFs can relay notifications through their local Agent
to the Manager, informing the provider about events that should be reviewed
such as an unexpected or inconsistent NF state or expected but anomalous
events such as an intrusion attempt or detected malware."

Notifications received from Agents are stored here, are queryable by
severity/station/NF, and fan out to subscribers (the UI shows them; tests and
benchmark E8 measure their delivery latency and completeness).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List


@dataclass
class ProviderNotification:
    """A notification as stored by the Manager."""

    received_at: float
    raised_at: float
    station_name: str
    nf_name: str
    severity: str
    message: str
    details: Dict[str, object] = field(default_factory=dict)
    acknowledged: bool = False

    @property
    def delivery_latency_s(self) -> float:
        """Time from the NF raising the event to the Manager storing it."""
        return max(0.0, self.received_at - self.raised_at)


NotificationSubscriber = Callable[[ProviderNotification], None]

#: Ordering used when filtering by minimum severity.
SEVERITY_ORDER = {"debug": 0, "info": 1, "warning": 2, "critical": 3}


class NotificationCenter:
    """Stores, filters and fans out provider notifications."""

    def __init__(self, max_notifications: int = 10_000) -> None:
        self.max_notifications = max_notifications
        self._notifications: List[ProviderNotification] = []
        self._subscribers: List[NotificationSubscriber] = []

    def subscribe(self, subscriber: NotificationSubscriber) -> None:
        self._subscribers.append(subscriber)

    def publish(self, notification: ProviderNotification) -> ProviderNotification:
        self._notifications.append(notification)
        if len(self._notifications) > self.max_notifications:
            self._notifications = self._notifications[-self.max_notifications :]
        for subscriber in self._subscribers:
            subscriber(notification)
        return notification

    def publish_batch(self, notifications: List[ProviderNotification]) -> None:
        """Publish a coalesced burst (the sharded control bus's entry point).

        A single centre may be shared by every Manager shard -- provider
        notifications are a network-global stream, so aggregation happens by
        construction rather than by merging per-shard stores.
        """
        self._notifications.extend(notifications)
        if len(self._notifications) > self.max_notifications:
            self._notifications = self._notifications[-self.max_notifications :]
        if self._subscribers:
            for notification in notifications:
                for subscriber in self._subscribers:
                    subscriber(notification)

    # -------------------------------------------------------------- queries

    def all(self) -> List[ProviderNotification]:
        return list(self._notifications)

    def __len__(self) -> int:
        return len(self._notifications)

    def by_severity(self, minimum: str = "info") -> List[ProviderNotification]:
        """Notifications at or above a minimum severity."""
        threshold = SEVERITY_ORDER.get(minimum, 1)
        return [
            notification
            for notification in self._notifications
            if SEVERITY_ORDER.get(notification.severity, 1) >= threshold
        ]

    def by_station(self, station_name: str) -> List[ProviderNotification]:
        return [n for n in self._notifications if n.station_name == station_name]

    def by_nf(self, nf_name: str) -> List[ProviderNotification]:
        return [n for n in self._notifications if n.nf_name == nf_name]

    def unacknowledged(self) -> List[ProviderNotification]:
        return [n for n in self._notifications if not n.acknowledged]

    def acknowledge_all(self) -> int:
        count = 0
        for notification in self._notifications:
            if not notification.acknowledged:
                notification.acknowledged = True
                count += 1
        return count

    def summary(self) -> Dict[str, int]:
        """Counts per severity for the UI's header."""
        counts: Dict[str, int] = {}
        for notification in self._notifications:
            counts[notification.severity] = counts.get(notification.severity, 0) + 1
        return counts
