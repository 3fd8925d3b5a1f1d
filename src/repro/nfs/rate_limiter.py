"""Token-bucket rate limiter (the ``tc``-style policer mentioned in the paper).

The limiter polices the client's traffic to a configured rate with a burst
allowance.  Separate buckets can be kept per direction.  Bucket fill levels
are exported state so a roaming client cannot reset its allowance simply by
switching cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.netem.packet import Packet
from repro.nfs.base import Direction, NetworkFunction, ProcessingContext


@dataclass
class TokenBucket:
    """A classic token bucket measured in bytes."""

    rate_bytes_per_s: float
    burst_bytes: float
    tokens: float = 0.0
    last_update: float = 0.0

    def __post_init__(self) -> None:
        if self.rate_bytes_per_s <= 0:
            raise ValueError(f"rate must be positive, got {self.rate_bytes_per_s}")
        if self.burst_bytes <= 0:
            raise ValueError(f"burst must be positive, got {self.burst_bytes}")
        if self.tokens == 0.0:
            self.tokens = self.burst_bytes

    def refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.last_update)
        self.tokens = min(self.burst_bytes, self.tokens + elapsed * self.rate_bytes_per_s)
        self.last_update = now

    def try_consume(self, size_bytes: int, now: float) -> bool:
        """Refill, then consume ``size_bytes`` tokens if available."""
        self.refill(now)
        if self.tokens >= size_bytes:
            self.tokens -= size_bytes
            return True
        return False

    def to_dict(self) -> Dict[str, float]:
        return {
            "rate_bytes_per_s": self.rate_bytes_per_s,
            "burst_bytes": self.burst_bytes,
            "tokens": self.tokens,
            "last_update": self.last_update,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "TokenBucket":
        return cls(
            rate_bytes_per_s=float(data["rate_bytes_per_s"]),
            burst_bytes=float(data["burst_bytes"]),
            tokens=float(data.get("tokens", 0.0)),
            last_update=float(data.get("last_update", 0.0)),
        )


class RateLimiter(NetworkFunction):
    """Polices traffic to ``rate_bps`` with a ``burst_bytes`` allowance."""

    nf_type = "rate-limiter"
    per_packet_cpu_us = 4.0
    base_state_mb = 0.2

    def __init__(
        self,
        name: str = "",
        rate_bps: float = 5e6,
        burst_bytes: float = 64_000,
        limit_downstream: bool = True,
        limit_upstream: bool = True,
    ) -> None:
        super().__init__(name=name)
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self.limit_downstream = limit_downstream
        self.limit_upstream = limit_upstream
        rate_bytes = rate_bps / 8.0
        self._buckets: Dict[str, TokenBucket] = {
            Direction.UPSTREAM.value: TokenBucket(rate_bytes_per_s=rate_bytes, burst_bytes=burst_bytes),
            Direction.DOWNSTREAM.value: TokenBucket(rate_bytes_per_s=rate_bytes, burst_bytes=burst_bytes),
        }
        self.packets_policed = 0
        self.bytes_policed = 0

    # ------------------------------------------------------------ dataplane

    def _process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        if context.direction is Direction.UPSTREAM and not self.limit_upstream:
            return [packet]
        if context.direction is Direction.DOWNSTREAM and not self.limit_downstream:
            return [packet]
        bucket = self._buckets[context.direction.value]
        if bucket.try_consume(packet.size_bytes, context.now):
            return [packet]
        self.packets_policed += 1
        self.bytes_policed += packet.size_bytes
        return []

    # ------------------------------------------------------------ migration

    def export_state(self) -> Dict[str, object]:
        state = super().export_state()
        state.update(
            {
                "rate_bps": self.rate_bps,
                "burst_bytes": self.burst_bytes,
                "buckets": {direction: bucket.to_dict() for direction, bucket in self._buckets.items()},
                "packets_policed": self.packets_policed,
                "bytes_policed": self.bytes_policed,
            }
        )
        return state

    def import_state(self, state: Dict[str, object]) -> None:
        super().import_state(state)
        self.rate_bps = float(state.get("rate_bps", self.rate_bps))
        self.burst_bytes = float(state.get("burst_bytes", self.burst_bytes))
        buckets = state.get("buckets")
        if isinstance(buckets, dict):
            for direction, data in buckets.items():
                if direction in self._buckets and isinstance(data, dict):
                    self._buckets[direction] = TokenBucket.from_dict(data)
        self.packets_policed = int(state.get("packets_policed", self.packets_policed))
        self.bytes_policed = int(state.get("bytes_policed", self.bytes_policed))

    def bucket_level(self, direction: Direction) -> float:
        """Remaining tokens (bytes) for a direction (used by tests and the UI)."""
        return self._buckets[direction.value].tokens

    def describe(self) -> Dict[str, object]:
        description = super().describe()
        description.update(
            {
                "rate_bps": self.rate_bps,
                "packets_policed": self.packets_policed,
                "bytes_policed": self.bytes_policed,
            }
        )
        return description
