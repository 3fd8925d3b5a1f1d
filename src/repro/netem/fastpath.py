"""Flow-cached fast path for the station software switch.

The slow path of :class:`~repro.netem.switch.SoftwareSwitch` is the classic
OpenFlow pipeline: every packet is deferred by a scheduled forwarding-delay
event and then walked down the priority :class:`~repro.netem.flowtable
.FlowTable` rule by rule.  That is faithful but expensive -- at line rate the
per-packet event churn and the linear ``Match`` evaluation dominate the whole
emulation.  This module provides the OVS-style microflow cache that turns the
common case into a dictionary hit:

* :class:`FlowKey` -- every header field a :class:`~repro.netem.flowtable
  .Match` can test, extracted **once** per packet.  Two packets with equal
  keys are guaranteed to hit the same highest-priority rule as long as the
  table has not changed.
* :class:`CompiledVerdict` -- a rule's action list compiled down to integer
  opcodes, stamped with the flow-table generation it was derived from.
* :class:`FlowCache` -- the key -> verdict map.  Entries self-invalidate when
  the table generation moves on (rule install/remove), which is what keeps
  roaming correct: a migration removes the old station's steering rules, the
  generation bumps, and every stale verdict dies on its next lookup.

A hit skips the forwarding-delay event and the table walk of one switch
traversal, so a packet crossing a ``k``-NF chain costs ``k`` simulator events
inside the station (one processing delay per NF) instead of ``2k + 1``.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.netem.flowtable import ActionType, FlowRule
from repro.netem.packet import Packet, TCPHeader, UDPHeader

# Integer opcodes the switch interprets when applying a cached verdict.  They
# mirror ActionType but avoid per-packet enum identity checks on the hot path.
OP_OUTPUT = 0
OP_DROP = 1
OP_FLOOD = 2
OP_SET_ETH_DST = 3
OP_SET_ETH_SRC = 4
OP_SET_IP_DST = 5
OP_SET_IP_SRC = 6
OP_SET_METADATA = 7

_PORT_HEADERS = (TCPHeader, UDPHeader)
_tuple_new = tuple.__new__

_OPCODES = {
    ActionType.OUTPUT: OP_OUTPUT,
    ActionType.DROP: OP_DROP,
    ActionType.FLOOD: OP_FLOOD,
    ActionType.SET_ETH_DST: OP_SET_ETH_DST,
    ActionType.SET_ETH_SRC: OP_SET_ETH_SRC,
    ActionType.SET_IP_DST: OP_SET_IP_DST,
    ActionType.SET_IP_SRC: OP_SET_IP_SRC,
    ActionType.SET_METADATA: OP_SET_METADATA,
}


class FlowKey(NamedTuple):
    """Everything a flow-table ``Match`` can test, extracted once per packet.

    ``metadata`` only carries the keys some installed rule actually references
    (the table tracks that set), so unrelated packet metadata -- probe tags,
    timestamps -- does not fragment the cache.
    """

    in_port: int
    eth_src: Optional[str]
    eth_dst: Optional[str]
    ip_src: Optional[str]
    ip_dst: Optional[str]
    ip_proto: Optional[int]
    l4_src_port: Optional[int]
    l4_dst_port: Optional[int]
    metadata: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def extract(
        cls,
        packet: Packet,
        in_port: int,
        metadata_keys: Tuple[str, ...] = (),
    ) -> "FlowKey":
        # Built with tuple.__new__ to skip NamedTuple argument plumbing --
        # this runs once per packet per switch traversal.
        eth = packet.eth
        ip = packet.ip
        l4 = packet.l4
        if isinstance(l4, _PORT_HEADERS):
            src_port: Optional[int] = l4.src_port
            dst_port: Optional[int] = l4.dst_port
        else:
            src_port = dst_port = None
        if not metadata_keys:
            meta: Tuple[Tuple[str, object], ...] = ()
        elif len(metadata_keys) == 1:
            key = metadata_keys[0]
            meta = ((key, packet.metadata.get(key)),)
        else:
            packet_metadata = packet.metadata
            meta = tuple((key, packet_metadata.get(key)) for key in metadata_keys)
        if ip is not None:
            fields = (
                in_port,
                eth.src if eth is not None else None,
                eth.dst if eth is not None else None,
                ip.src,
                ip.dst,
                ip.protocol,
                src_port,
                dst_port,
                meta,
            )
        else:
            fields = (
                in_port,
                eth.src if eth is not None else None,
                eth.dst if eth is not None else None,
                None,
                None,
                None,
                src_port,
                dst_port,
                meta,
            )
        return _tuple_new(cls, fields)


class CompiledVerdict:
    """A flow rule's action list compiled for cache replay.

    The verdict keeps a reference to the originating rule so per-rule
    packet/byte counters stay accurate on cache hits, and carries the table
    generation it was compiled under so it can be recognised as stale.
    """

    __slots__ = ("rule", "generation", "ops", "hits")

    def __init__(self, rule: FlowRule, generation: int) -> None:
        self.rule = rule
        self.generation = generation
        self.ops: Tuple[Tuple[int, object], ...] = tuple(
            (_OPCODES[action.action_type], int(action.value))  # type: ignore[arg-type]
            if action.action_type is ActionType.OUTPUT
            else (_OPCODES[action.action_type], action.value)
            for action in rule.actions
        )
        self.hits = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CompiledVerdict(rule={self.rule.rule_id}, gen={self.generation}, hits={self.hits})"


class FlowCache:
    """Generation-stamped microflow cache (the OVS exact-match cache idiom).

    ``lookup`` returns a verdict only while its generation matches the live
    flow table's; anything older is evicted on sight.  Capacity is bounded
    with FIFO eviction -- the cache is an accelerator, never a correctness
    dependency.
    """

    def __init__(self, name: str = "flow-cache", capacity: int = 8192) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._entries: Dict[FlowKey, CompiledVerdict] = {}
        self.hits = 0
        self.misses = 0
        self.insertions = 0
        self.invalidations = 0
        self.evictions = 0
        self.flushes = 0

    # -------------------------------------------------------------- hot path

    def lookup(self, key: FlowKey, generation: int) -> Optional[CompiledVerdict]:
        """Return the cached verdict for ``key`` if it is still current."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.generation != generation:
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self.hits += 1
        entry.hits += 1
        return entry

    def store(self, key: FlowKey, verdict: CompiledVerdict) -> CompiledVerdict:
        """Insert (or refresh) a verdict, evicting the oldest entry when full."""
        entries = self._entries
        if key not in entries and len(entries) >= self.capacity:
            entries.pop(next(iter(entries)))
            self.evictions += 1
        entries[key] = verdict
        self.insertions += 1
        return verdict

    # ---------------------------------------------------------- invalidation

    def flush(self) -> int:
        """Drop every entry (e.g. on switch reconfiguration); returns the count."""
        count = len(self._entries)
        self._entries.clear()
        self.flushes += count
        return count

    def flush_ip(self, ip: str) -> int:
        """Drop every entry whose key touches ``ip`` (roaming invalidation)."""
        return self.flush_where(lambda key: key.ip_src == ip or key.ip_dst == ip)

    def flush_where(self, predicate: Callable[[FlowKey], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; returns the count."""
        stale = [key for key in self._entries if predicate(key)]
        for key in stale:
            del self._entries[key]
        self.flushes += len(stale)
        return len(stale)

    # ----------------------------------------------------------------- stats

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counter snapshot (exported through the telemetry collector)."""
        return {
            "entries": float(len(self._entries)),
            "capacity": float(self.capacity),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate,
            "insertions": float(self.insertions),
            "invalidations": float(self.invalidations),
            "evictions": float(self.evictions),
            "flushes": float(self.flushes),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"FlowCache({self.name!r}, entries={len(self._entries)}, hit_rate={self.hit_rate:.2f})"

