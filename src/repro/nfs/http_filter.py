"""HTTP URL / content filter.

The demo's second NF.  Upstream HTTP requests whose host or path matches a
blocked entry are answered directly by the filter with a ``403 Forbidden``
response (so the client sees the block rather than a silent timeout), and
downstream responses with blocked content types are dropped.  The block list
and per-domain hit counters are exported state, so the policy follows the
client when it roams.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.netem.packet import HTTPRequest, HTTPResponse, Packet
from repro.nfs.base import Direction, NetworkFunction, ProcessingContext


def _host_matches(host: str, pattern: str) -> bool:
    """True if ``host`` equals ``pattern`` or is a subdomain of it."""
    host = host.lower().rstrip(".")
    pattern = pattern.lower().rstrip(".")
    return host == pattern or host.endswith("." + pattern)


class HTTPFilter(NetworkFunction):
    """Blocks HTTP requests by host, URL substring or response content type."""

    nf_type = "http-filter"
    per_packet_cpu_us = 15.0

    def __init__(
        self,
        name: str = "",
        blocked_hosts: Sequence[str] = (),
        blocked_url_substrings: Sequence[str] = (),
        blocked_content_types: Sequence[str] = (),
        notify_on_block: bool = False,
    ) -> None:
        super().__init__(name=name)
        self.blocked_hosts: List[str] = list(blocked_hosts)
        self.blocked_url_substrings: List[str] = list(blocked_url_substrings)
        self.blocked_content_types: List[str] = list(blocked_content_types)
        self.notify_on_block = notify_on_block
        self.requests_seen = 0
        self.requests_blocked = 0
        self.responses_blocked = 0
        self.block_counts: Dict[str, int] = {}

    # --------------------------------------------------------------- policy

    def block_host(self, host: str) -> None:
        if host not in self.blocked_hosts:
            self.blocked_hosts.append(host)

    def unblock_host(self, host: str) -> None:
        if host in self.blocked_hosts:
            self.blocked_hosts.remove(host)

    def _is_blocked_request(self, request: HTTPRequest) -> bool:
        if any(_host_matches(request.host, blocked) for blocked in self.blocked_hosts):
            return True
        url = request.url
        return any(substring in url for substring in self.blocked_url_substrings)

    # ------------------------------------------------------------ dataplane

    def _process(self, packet: Packet, context: ProcessingContext) -> List[Packet]:
        if isinstance(packet.app, HTTPRequest) and context.direction is Direction.UPSTREAM:
            self.requests_seen += 1
            if self._is_blocked_request(packet.app):
                self.requests_blocked += 1
                host = packet.app.host
                self.block_counts[host] = self.block_counts.get(host, 0) + 1
                if self.notify_on_block:
                    self.emit_notification(
                        context.now,
                        severity="info",
                        message=f"blocked HTTP request to {host}",
                        details={"url": packet.app.url, "client": context.client_ip},
                    )
                return [self._forbidden_response(packet, context)]
            return [packet]

        if isinstance(packet.app, HTTPResponse) and context.direction is Direction.DOWNSTREAM:
            if packet.app.content_type in self.blocked_content_types:
                self.responses_blocked += 1
                return []
            return [packet]

        return [packet]

    def _forbidden_response(self, request_packet: Packet, context: ProcessingContext) -> Packet:
        """Answer a blocked request with a locally generated 403."""
        assert isinstance(request_packet.app, HTTPRequest)
        response = request_packet.copy()
        assert response.eth is not None and response.ip is not None and response.l4 is not None
        response.eth = response.eth.swapped()
        response.ip = response.ip.swapped()
        response.l4 = response.l4.swapped()  # type: ignore[union-attr]
        response.app = HTTPResponse(
            status=403,
            content_type="text/html",
            body_bytes=512,
            request_url=request_packet.app.url,
        )
        response.created_at = context.now
        return response

    # ------------------------------------------------------------ migration

    def export_state(self) -> Dict[str, object]:
        state = super().export_state()
        state.update(
            {
                "blocked_hosts": list(self.blocked_hosts),
                "blocked_url_substrings": list(self.blocked_url_substrings),
                "blocked_content_types": list(self.blocked_content_types),
                "requests_seen": self.requests_seen,
                "requests_blocked": self.requests_blocked,
                "responses_blocked": self.responses_blocked,
                "block_counts": dict(self.block_counts),
            }
        )
        return state

    def import_state(self, state: Dict[str, object]) -> None:
        super().import_state(state)
        for attribute in ("blocked_hosts", "blocked_url_substrings", "blocked_content_types"):
            value = state.get(attribute)
            if isinstance(value, list):
                setattr(self, attribute, list(value))
        self.requests_seen = int(state.get("requests_seen", self.requests_seen))
        self.requests_blocked = int(state.get("requests_blocked", self.requests_blocked))
        self.responses_blocked = int(state.get("responses_blocked", self.responses_blocked))
        counts = state.get("block_counts")
        if isinstance(counts, dict):
            self.block_counts = {str(k): int(v) for k, v in counts.items()}
