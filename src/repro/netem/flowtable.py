"""Priority match/action flow table for the station software switch.

GNF Agents attach NFs to a *subset of a client's traffic* by installing flow
rules that steer matching packets through the NF container's ingress veth and
back out of its egress veth ("transparent traffic handling" in the paper).
The flow table here follows OpenFlow conventions closely enough that the
installed rules read like the ones a real deployment would use: priority
ordering, wildcardable match fields, per-rule packet/byte counters, and a
cookie used to group rules belonging to the same client/NF assignment so the
Agent can remove them atomically.
"""

from __future__ import annotations

import bisect
import enum
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.netem.packet import Packet, TCPHeader, UDPHeader


class ActionType(enum.Enum):
    """Supported flow actions."""

    OUTPUT = "output"
    DROP = "drop"
    FLOOD = "flood"
    SET_ETH_DST = "set_eth_dst"
    SET_ETH_SRC = "set_eth_src"
    SET_IP_DST = "set_ip_dst"
    SET_IP_SRC = "set_ip_src"
    SET_METADATA = "set_metadata"


@dataclass(frozen=True, slots=True)
class Action:
    """A single action; ``value`` is the output port, field value, or tag."""

    action_type: ActionType
    value: object = None

    @classmethod
    def output(cls, port: int) -> "Action":
        return cls(ActionType.OUTPUT, port)

    @classmethod
    def drop(cls) -> "Action":
        return cls(ActionType.DROP)

    @classmethod
    def flood(cls) -> "Action":
        return cls(ActionType.FLOOD)

    @classmethod
    def set_metadata(cls, key: str, value: object) -> "Action":
        return cls(ActionType.SET_METADATA, (key, value))


@dataclass(frozen=True, slots=True)
class Match:
    """Wildcardable match over the packet fields GNF steering needs.

    ``None`` means "don't care".  ``metadata`` entries must all be present
    (and equal) in the packet's metadata dict for the match to succeed, which
    is how chain steering tags packets that already traversed an NF.
    """

    in_port: Optional[int] = None
    eth_src: Optional[str] = None
    eth_dst: Optional[str] = None
    ip_src: Optional[str] = None
    ip_dst: Optional[str] = None
    ip_proto: Optional[int] = None
    l4_src_port: Optional[int] = None
    l4_dst_port: Optional[int] = None
    metadata: Tuple[Tuple[str, object], ...] = ()

    def matches(self, packet: Packet, in_port: int) -> bool:
        """True if the packet arriving on ``in_port`` satisfies every field."""
        if self.in_port is not None and in_port != self.in_port:
            return False
        if self.eth_src is not None and (packet.eth is None or packet.eth.src != self.eth_src):
            return False
        if self.eth_dst is not None and (packet.eth is None or packet.eth.dst != self.eth_dst):
            return False
        if self.ip_src is not None and (packet.ip is None or packet.ip.src != self.ip_src):
            return False
        if self.ip_dst is not None and (packet.ip is None or packet.ip.dst != self.ip_dst):
            return False
        if self.ip_proto is not None and (packet.ip is None or packet.ip.protocol != self.ip_proto):
            return False
        if self.l4_src_port is not None:
            if not isinstance(packet.l4, (TCPHeader, UDPHeader)) or packet.l4.src_port != self.l4_src_port:
                return False
        if self.l4_dst_port is not None:
            if not isinstance(packet.l4, (TCPHeader, UDPHeader)) or packet.l4.dst_port != self.l4_dst_port:
                return False
        for key, value in self.metadata:
            if packet.metadata.get(key) != value:
                return False
        return True

    def specificity(self) -> int:
        """Number of concrete (non-wildcard) fields; used for diagnostics."""
        concrete = sum(
            1
            for value in (
                self.in_port,
                self.eth_src,
                self.eth_dst,
                self.ip_src,
                self.ip_dst,
                self.ip_proto,
                self.l4_src_port,
                self.l4_dst_port,
            )
            if value is not None
        )
        return concrete + len(self.metadata)


_rule_ids = itertools.count(1)


@dataclass(slots=True)
class FlowRule:
    """A priority, match, action-list triple with counters.

    ``priority``, ``cookie``, ``match`` and ``rule_id`` are immutable once the
    rule is installed: :class:`FlowTable` files the rule under them when it
    goes in and trusts them when it comes out.  Nothing in ``src/`` mutates
    them; to change one, remove the rule and install a new one.
    """

    priority: int
    match: Match
    actions: Sequence[Action]
    cookie: str = ""
    rule_id: int = field(default_factory=lambda: next(_rule_ids))
    packets_matched: int = 0
    bytes_matched: int = 0

    def record(self, packet: Packet) -> None:
        self.packets_matched += 1
        self.bytes_matched += packet.size_bytes


def _table_order(rule: FlowRule) -> Tuple[int, int]:
    """Where ``rule`` sorts in a table: by priority, then newest first."""
    return (-rule.priority, -rule.rule_id)


class FlowTable:
    """An ordered collection of :class:`FlowRule` objects.

    Rules are evaluated highest priority first; among equal priorities the
    most recently installed rule wins (mirroring OVS behaviour closely enough
    for the reproduction's purposes).

    The list is *kept* in that order rather than re-sorted: ``install``
    inserts at the bisect position of ``(-priority, -rule_id)`` (computed
    per probe, not stored beside the rules), a per-cookie
    rule count lets ``remove_by_cookie`` answer "absent" without a scan, and
    a per-metadata-key reference count keeps ``referenced_metadata_keys``
    current without walking the rules.
    """

    def __init__(self, name: str = "table0") -> None:
        self.name = name
        self._rules: List[FlowRule] = []
        self._cookie_counts: Dict[str, int] = {}
        self._metadata_refs: Dict[str, int] = {}
        #: Bumped on every install, every removal that removed something and
        #: every ``clear()`` of a non-empty table.  The switch's flow cache
        #: stamps each verdict with the generation it was compiled under, so
        #: cache entries self-invalidate the moment the table changes
        #: (critical for roaming: a migration must not leave stale verdicts
        #: steering traffic to the old station).
        self.generation = 0
        self._metadata_keys: Tuple[str, ...] = ()

    @property
    def referenced_metadata_keys(self) -> Tuple[str, ...]:
        """Sorted metadata keys some installed rule matches on.

        The fast path folds exactly these keys into its :class:`~repro.netem
        .fastpath.FlowKey`, so unrelated packet metadata does not fragment the
        cache while metadata-steered rules (chain continuation) stay correct.
        """
        return self._metadata_keys

    # ------------------------------------------------------------ mutation

    def install(self, rule: FlowRule) -> FlowRule:
        """Add a rule at its place in descending-priority order.

        Equal keys go after the ones already there, which is where the
        stable re-sort this replaces left them.
        """
        bisect.insort_right(self._rules, rule, key=_table_order)
        self._cookie_counts[rule.cookie] = self._cookie_counts.get(rule.cookie, 0) + 1
        if rule.match.metadata:
            refs = self._metadata_refs
            for key, _ in rule.match.metadata:
                refs[key] = refs.get(key, 0) + 1
            if len(refs) != len(self._metadata_keys):
                self._metadata_keys = tuple(sorted(refs))
        self.generation += 1
        return rule

    def add(
        self,
        priority: int,
        match: Match,
        actions: Sequence[Action],
        cookie: str = "",
    ) -> FlowRule:
        """Convenience wrapper constructing and installing a rule (its actions kept as a tuple)."""
        return self.install(FlowRule(priority=priority, match=match, actions=tuple(actions), cookie=cookie))

    def _remove_at(self, indices: List[int]) -> int:
        """Drop the rules at ``indices`` (ascending); returns how many."""
        if not indices:
            return 0
        refs = self._metadata_refs
        for index in reversed(indices):
            rule = self._rules.pop(index)
            remaining = self._cookie_counts[rule.cookie] - 1
            if remaining:
                self._cookie_counts[rule.cookie] = remaining
            else:
                del self._cookie_counts[rule.cookie]
            for key, _ in rule.match.metadata:
                refs[key] -= 1
                if not refs[key]:
                    del refs[key]
        if len(refs) != len(self._metadata_keys):
            self._metadata_keys = tuple(sorted(refs))
        self.generation += 1
        return len(indices)

    def remove_rule(self, rule_id: int) -> bool:
        """Remove a single rule by id; returns True if something was removed."""
        return bool(
            self._remove_at([i for i, rule in enumerate(self._rules) if rule.rule_id == rule_id])
        )

    def remove_by_cookie(self, cookie: str) -> int:
        """Remove every rule installed under ``cookie``; returns the count."""
        if cookie not in self._cookie_counts:
            return 0
        return self._remove_at([i for i, rule in enumerate(self._rules) if rule.cookie == cookie])

    def clear(self) -> None:
        if self._rules:
            self._rules.clear()
            self._cookie_counts.clear()
            self._metadata_refs.clear()
            self._metadata_keys = ()
            self.generation += 1

    # ------------------------------------------------------------- lookup

    def lookup(self, packet: Packet, in_port: int) -> Optional[FlowRule]:
        """Return the highest-priority rule matching the packet, if any."""
        for rule in self._rules:
            if rule.match.matches(packet, in_port):
                rule.record(packet)
                return rule
        return None

    def rules(self, cookie: Optional[str] = None) -> List[FlowRule]:
        """All rules, optionally filtered by cookie."""
        if cookie is None:
            return list(self._rules)
        return [rule for rule in self._rules if rule.cookie == cookie]

    def __len__(self) -> int:
        return len(self._rules)

    def stats(self) -> Dict[str, int]:
        """Aggregate table statistics (for the Manager's monitoring view)."""
        return {
            "rules": len(self._rules),
            "generation": self.generation,
            "packets_matched": sum(rule.packets_matched for rule in self._rules),
            "bytes_matched": sum(rule.bytes_matched for rule in self._rules),
        }
