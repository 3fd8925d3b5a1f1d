"""Point-to-point links with bandwidth, propagation delay, loss and queueing.

Links connect two :class:`~repro.netem.host.Interface` objects.  Transmission
models the usual store-and-forward pipeline: a packet waits behind packets
already queued on the same direction, is serialized at the link rate and then
propagates for the configured delay.  Each direction keeps independent state
so full-duplex behaviour matches an Ethernet or Wi-Fi backhaul link.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.netem.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.netem.host import Interface
    from repro.netem.packet import Packet


@dataclass(slots=True)
class LinkStats:
    """Per-direction link counters."""

    tx_packets: int = 0
    tx_bytes: int = 0
    dropped_packets: int = 0
    dropped_bytes: int = 0
    queued_high_water: int = 0
    #: Bytes moved across this direction by the fluid model (hybrid mode);
    #: they never appear as packets, so they are counted separately.
    fluid_bytes: float = 0.0


class _Direction(LinkStats):
    """One direction of a link: its counters, plus the state of its queue.

    A direction *is* its :class:`LinkStats`, so a link holds two objects
    beside itself and :meth:`Link.stats` hands out the live counters.
    """

    __slots__ = ("busy_until", "queue_depth", "fluid_load_bps")

    def __init__(self) -> None:
        super().__init__()
        self.busy_until = 0.0
        self.queue_depth = 0
        #: Aggregate fluid-flow rate currently occupying this direction.
        #: Packet serialization only sees the residual bandwidth while this
        #: is non-zero; at zero the arithmetic is bit-identical to the
        #: fluid-free link (the packet/hybrid digest-equivalence contract).
        self.fluid_load_bps = 0.0


class Link:
    """Full-duplex point-to-point link.

    Parameters
    ----------
    simulator:
        The shared simulation kernel.
    bandwidth_bps:
        Link rate in bits per second (e.g. ``100e6`` for the paper's
        home-router class devices, ``1e9`` for the backhaul).
    delay_s:
        One-way propagation delay in seconds.
    loss_rate:
        Independent per-packet loss probability in ``[0, 1)``.
    max_queue_packets:
        Drop-tail queue limit per direction.
    name:
        Human-readable label used by error messages and ``repr``.  Without
        one, :attr:`name` is built on read from the two endpoints' names, so
        an unnamed link (every radio link) holds no string of its own.
    """

    __slots__ = (
        "simulator",
        "bandwidth_bps",
        "delay_s",
        "loss_rate",
        "max_queue_packets",
        "_name",
        "_rng",
        "endpoint_a",
        "endpoint_b",
        "_a_to_b",
        "_b_to_a",
        "up",
    )

    def __init__(
        self,
        simulator: Simulator,
        bandwidth_bps: float = 1e9,
        delay_s: float = 0.001,
        loss_rate: float = 0.0,
        max_queue_packets: int = 1000,
        name: str = "",
        rng: Optional[random.Random] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if delay_s < 0:
            raise ValueError(f"delay must be non-negative, got {delay_s}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.simulator = simulator
        self.bandwidth_bps = bandwidth_bps
        self.delay_s = delay_s
        self.loss_rate = loss_rate
        self.max_queue_packets = max_queue_packets
        self._name = name
        self._rng = rng
        self.endpoint_a: Optional["Interface"] = None
        self.endpoint_b: Optional["Interface"] = None
        self._a_to_b = _Direction()
        self._b_to_a = _Direction()
        self.up = True

    @property
    def name(self) -> str:
        """The given name, else ``"<endpoint a><-><endpoint b>"`` (``"link"`` while unattached)."""
        if self._name:
            return self._name
        if self.endpoint_a is None or self.endpoint_b is None:
            return "link"
        return f"{self.endpoint_a.name}<->{self.endpoint_b.name}"

    # ----------------------------------------------------------- wiring

    def attach(self, a: "Interface", b: "Interface") -> "Link":
        """Connect the two endpoints of the link."""
        if self.endpoint_a is not None or self.endpoint_b is not None:
            raise RuntimeError(f"link {self.name} is already attached")
        self.endpoint_a = a
        self.endpoint_b = b
        a.link = self
        b.link = self
        return self

    def _egress(self, interface: "Interface") -> Tuple[_Direction, "Interface"]:
        """Direction state and peer for traffic leaving through ``interface``."""
        if interface is self.endpoint_a:
            assert self.endpoint_b is not None
            return self._a_to_b, self.endpoint_b
        if interface is self.endpoint_b:
            assert self.endpoint_a is not None
            return self._b_to_a, self.endpoint_a
        raise ValueError(f"interface {interface!r} is not attached to link {self.name}")

    def _direction(self, direction_key: str) -> _Direction:
        """The direction the fluid solver names ``"a_to_b"`` or ``"b_to_a"``."""
        if direction_key == "a_to_b":
            return self._a_to_b
        if direction_key == "b_to_a":
            return self._b_to_a
        raise KeyError(direction_key)

    @property
    def _directions(self) -> Dict[str, _Direction]:
        """Both directions by name (built on read; the link keeps no such dict)."""
        return {"a_to_b": self._a_to_b, "b_to_a": self._b_to_a}

    def peer_of(self, interface: "Interface") -> "Interface":
        """Return the interface at the other end of the link."""
        return self._egress(interface)[1]

    # ----------------------------------------------------- transmission

    def serialization_delay(self, size_bytes: int) -> float:
        """Time to clock ``size_bytes`` onto the wire at the link rate."""
        return (size_bytes * 8) / self.bandwidth_bps

    #: Fluid background load can squeeze packet bandwidth down to this
    #: fraction of the link rate, but never below it (mirrors fair-share:
    #: the packets themselves are also contenders on the real link).
    _MIN_RESIDUAL_FRACTION = 0.05

    def _packet_serialization_delay(self, size_bytes: int, direction: _Direction) -> float:
        """Serialization delay as seen by packets, inflated by fluid load."""
        fluid = direction.fluid_load_bps
        if fluid <= 0.0:
            return (size_bytes * 8) / self.bandwidth_bps
        residual = max(
            self.bandwidth_bps - fluid, self.bandwidth_bps * self._MIN_RESIDUAL_FRACTION
        )
        return (size_bytes * 8) / residual

    # ------------------------------------------------------ fluid occupancy

    def set_fluid_load(self, direction_key: str, load_bps: float) -> None:
        """Install the aggregate fluid rate for one direction (hybrid mode)."""
        self._direction(direction_key).fluid_load_bps = max(0.0, load_bps)

    def fluid_load(self, direction_key: str) -> float:
        return self._direction(direction_key).fluid_load_bps

    def add_fluid_bytes(self, direction_key: str, size_bytes: float) -> None:
        """Account bytes the fluid solver moved across one direction."""
        self._direction(direction_key).fluid_bytes += size_bytes

    def transmit(self, packet: "Packet", from_interface: "Interface") -> bool:
        """Send ``packet`` out of ``from_interface`` towards the peer.

        Returns ``True`` if the packet was accepted for transmission (it may
        still be lost in flight), ``False`` if it was dropped immediately
        (link down or full queue).  An interface that is not an endpoint of
        this link raises ``ValueError`` before any state is touched.
        """
        direction, destination = self._egress(from_interface)
        size = packet.size_bytes

        depth = direction.queue_depth
        if not self.up or depth >= self.max_queue_packets:
            direction.dropped_packets += 1
            direction.dropped_bytes += size
            return False

        simulator = self.simulator
        now = simulator.now
        start = direction.busy_until
        if start < now:
            start = now
        if direction.fluid_load_bps <= 0.0:  # the usual case, spelled out: no call per packet
            busy_until = start + (size * 8) / self.bandwidth_bps
        else:
            busy_until = start + self._packet_serialization_delay(size, direction)
        direction.busy_until = busy_until

        direction.queue_depth = depth = depth + 1
        if depth > direction.queued_high_water:
            direction.queued_high_water = depth

        lost = False
        if self.loss_rate > 0.0:
            rng = self._rng
            if rng is None:
                # Built on the first draw, so a loss-free link (every radio
                # link) never holds one; the sequence is the same either way.
                rng = self._rng = random.Random(0)
            lost = rng.random() < self.loss_rate
        simulator.call_at(
            busy_until + self.delay_s, self._deliver, packet, destination, direction, lost, size
        )
        return True

    def _deliver(
        self,
        packet: "Packet",
        destination: "Interface",
        direction: _Direction,
        lost: bool,
        size: int,
    ) -> None:
        """The one event of a hop; ``size`` is what ``transmit`` serialized."""
        direction.queue_depth -= 1
        if lost or not self.up:
            direction.dropped_packets += 1
            direction.dropped_bytes += size
            return
        direction.tx_packets += 1
        direction.tx_bytes += size
        packet.hops += 1
        destination.deliver(packet)

    # --------------------------------------------------------- management

    def set_up(self, up: bool) -> None:
        """Administratively enable or disable the link (failure injection)."""
        self.up = up

    def stats(self, from_interface: "Interface") -> LinkStats:
        """Live counters of the direction whose transmissions originate at ``from_interface``."""
        return self._egress(from_interface)[0]

    @property
    def tx_bytes(self) -> int:
        """Bytes transmitted across both directions, without building the
        :class:`LinkStats` that :attr:`total_stats` returns."""
        return self._a_to_b.tx_bytes + self._b_to_a.tx_bytes

    @property
    def total_stats(self) -> LinkStats:
        """Aggregated counters across both directions."""
        combined = LinkStats()
        for direction in (self._a_to_b, self._b_to_a):
            combined.tx_packets += direction.tx_packets
            combined.tx_bytes += direction.tx_bytes
            combined.dropped_packets += direction.dropped_packets
            combined.dropped_bytes += direction.dropped_bytes
            combined.queued_high_water = max(
                combined.queued_high_water, direction.queued_high_water
            )
            combined.fluid_bytes += direction.fluid_bytes
        return combined

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Link({self.name!r}, {self.bandwidth_bps / 1e6:.0f} Mbps, "
            f"{self.delay_s * 1e3:.2f} ms, up={self.up})"
        )
