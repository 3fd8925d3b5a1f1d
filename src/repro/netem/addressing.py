"""MAC and IPv4 address allocation for the emulated testbed.

The topology builder uses these allocators to hand out unique, deterministic
addresses to stations, cells, clients, servers and NF container interfaces,
mirroring the DHCP/static assignment a real GNF deployment would rely on.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Dict, Iterator, Optional


class AddressExhaustedError(RuntimeError):
    """Raised when an allocator runs out of addresses."""


class MACAllocator:
    """Deterministic, collision-free MAC address allocator.

    Addresses are allocated from the locally-administered range
    ``02:xx:xx:xx:xx:xx`` so they can never collide with real hardware.
    """

    def __init__(self, prefix: int = 0x02) -> None:
        if not 0 <= prefix <= 0xFF:
            raise ValueError(f"MAC prefix must be a single byte, got {prefix:#x}")
        self._prefix = prefix
        self._counter = 0

    def allocate(self) -> str:
        """Return the next unused MAC address."""
        if self._counter >= 2 ** 40:
            raise AddressExhaustedError("MAC allocator exhausted")
        value = self._counter
        self._counter += 1
        octets = [self._prefix]
        for shift in (32, 24, 16, 8, 0):
            octets.append((value >> shift) & 0xFF)
        return ":".join(f"{octet:02x}" for octet in octets)

    @property
    def allocated_count(self) -> int:
        return self._counter


@dataclass(frozen=True)
class Subnet:
    """An IPv4 subnet with a human-readable role (e.g. ``"clients"``)."""

    cidr: str
    role: str = ""

    @property
    def network(self) -> ipaddress.IPv4Network:
        return ipaddress.ip_network(self.cidr)

    def contains(self, address: str) -> bool:
        """True if ``address`` falls inside this subnet."""
        return ipaddress.ip_address(address) in self.network


class IPv4Allocator:
    """Allocates host addresses from a subnet, skipping network/broadcast."""

    def __init__(self, subnet: Subnet) -> None:
        self.subnet = subnet
        self._hosts: Iterator[ipaddress.IPv4Address] = subnet.network.hosts()
        self._allocated: Dict[str, str] = {}

    def allocate(self, owner: str = "") -> str:
        """Return the next free address, remembering the owner for debugging."""
        try:
            address = str(next(self._hosts))
        except StopIteration as exc:
            raise AddressExhaustedError(f"subnet {self.subnet.cidr} exhausted") from exc
        self._allocated[address] = owner
        return address

    def owner_of(self, address: str) -> Optional[str]:
        """Return the recorded owner of an allocated address, if any."""
        return self._allocated.get(address)

    def __len__(self) -> int:
        return len(self._allocated)


class AddressPlan:
    """The complete address plan for an emulated edge deployment.

    Groups one allocator per functional subnet so the topology builder (and
    tests) can ask for "a client address" or "a server address" without
    caring about the underlying CIDR layout.
    """

    DEFAULT_SUBNETS = {
        "clients": "10.10.0.0/16",
        "stations": "10.20.0.0/16",
        "servers": "10.30.0.0/16",
        "containers": "10.40.0.0/16",
        "control": "10.50.0.0/16",
    }

    def __init__(self, subnets: Optional[Dict[str, str]] = None) -> None:
        layout = dict(self.DEFAULT_SUBNETS)
        if subnets:
            layout.update(subnets)
        self.subnets: Dict[str, Subnet] = {
            role: Subnet(cidr=cidr, role=role) for role, cidr in layout.items()
        }
        self._allocators: Dict[str, IPv4Allocator] = {
            role: IPv4Allocator(subnet) for role, subnet in self.subnets.items()
        }
        self.macs = MACAllocator()

    def allocate_ip(self, role: str, owner: str = "") -> str:
        """Allocate an IPv4 address from the subnet serving ``role``."""
        if role not in self._allocators:
            raise KeyError(f"unknown address role {role!r}; known: {sorted(self._allocators)}")
        return self._allocators[role].allocate(owner)

    def allocate_mac(self) -> str:
        """Allocate a MAC address."""
        return self.macs.allocate()

    def role_of(self, address: str) -> Optional[str]:
        """Return which functional subnet an address belongs to."""
        for role, subnet in self.subnets.items():
            if subnet.contains(address):
                return role
        return None
