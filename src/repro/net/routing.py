"""Routing tables and the ``ip_rt_route()`` result type.

The paper's single kernel hook is the route-lookup function: "this function
returns, for any given destination address, both the recommended interface
to use to reach that destination and the recommended source address to use"
(Section 3.3).  :class:`RouteResult` is exactly that triple (interface,
source, gateway); :class:`RoutingTable` is an ordinary longest-prefix-match
table that the mobile-IP layer deliberately leaves untouched, adding its
policy in a separate table instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.net.addressing import IPAddress, Subnet

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.interface import NetworkInterface

#: The default route's destination.
DEFAULT_DESTINATION = Subnet(IPAddress(0), 0)


@dataclass
class RouteEntry:
    """One row of a routing table.

    ``gateway`` of ``None`` means the destination is on-link (deliver
    directly).  ``source`` optionally pins the recommended source address,
    which the home agent uses to steer intercepted packets into its VIF.
    """

    destination: Subnet
    interface: "NetworkInterface"
    gateway: Optional[IPAddress] = None
    metric: int = 0
    source: Optional[IPAddress] = None

    def matches(self, addr: IPAddress) -> bool:
        """True if *addr* falls within this entry's destination."""
        return addr in self.destination

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        via = f" via {self.gateway}" if self.gateway else ""
        return f"<Route {self.destination}{via} dev {self.interface.name} metric {self.metric}>"


@dataclass(frozen=True)
class RouteResult:
    """What ``ip_rt_route()`` hands back to IP/TCP: iface, source, gateway."""

    interface: "NetworkInterface"
    source: IPAddress
    gateway: Optional[IPAddress] = None

    def next_hop(self, dst: IPAddress) -> IPAddress:
        """The link-layer target: the gateway if any, else the destination."""
        return self.gateway if self.gateway is not None else dst


def _drop_identical(rows: List[RouteEntry], entry: RouteEntry) -> bool:
    """Delete *entry* itself, not a dataclass-equal copy, from *rows*."""
    for position, candidate in enumerate(rows):
        if candidate is entry:
            del rows[position]
            return True
    return False


class RoutingTable:
    """Longest-prefix-match IPv4 routing table with metrics.

    ``_entries`` keeps every row in insertion order for iteration.  Beside
    it sits an exact prefix index, ``prefix_len -> {network value ->
    [entries in insertion order]}``, plus the populated prefix lengths as
    ``(mask, bucket)`` probes, longest first.  :meth:`add` and
    :meth:`remove` update the index in place; :meth:`lookup` masks the
    destination once per populated prefix length and takes the first
    bucket holding an eligible entry, so its cost depends on how many
    distinct prefix lengths the table holds, not on how many routes.
    Interface liveness is read at lookup time, so nothing is memoized and
    nothing needs invalidating when an interface goes up or down.
    """

    def __init__(self) -> None:
        self._entries: List[RouteEntry] = []
        self._buckets: Dict[int, Dict[int, List[RouteEntry]]] = {}
        self._probes: List[Tuple[int, Dict[int, List[RouteEntry]]]] = []
        self._lookups = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def cache_info(self) -> Dict[str, int]:
        """Lookup diagnostics (perf observability, not simulation state).

        ``hits`` counts lookups, every one answered by the prefix index;
        ``misses`` is always 0 because no lookup falls back to a scan, so
        a hit ratio computed from the two reads 1.0 by construction.
        """
        return {"hits": self._lookups, "misses": 0}

    def add(self, entry: RouteEntry) -> None:
        """Append an entry (order only breaks metric ties)."""
        self._entries.append(entry)
        self._index(entry)

    def remove(self, entry: RouteEntry) -> None:
        """Remove exactly this entry object (by identity, not equality)."""
        if not _drop_identical(self._entries, entry):
            raise ValueError(f"{entry!r} is not in the routing table")
        destination = entry.destination
        bucket = self._buckets[destination.prefix_len]
        rows = bucket[destination.network.value]
        _drop_identical(rows, entry)
        if not rows:
            del bucket[destination.network.value]
            if not bucket:
                del self._buckets[destination.prefix_len]
                self._reprobe()

    def remove_matching(self, destination: Optional[Subnet] = None,
                        interface: Optional["NetworkInterface"] = None) -> int:
        """Remove every entry matching the given criteria; return count."""
        keep: List[RouteEntry] = []
        removed = 0
        for entry in self._entries:
            if destination is not None and entry.destination != destination:
                keep.append(entry)
                continue
            if interface is not None and entry.interface is not interface:
                keep.append(entry)
                continue
            removed += 1
        self._entries = keep
        self._buckets = {}
        self._probes = []
        for entry in keep:
            self._index(entry)
        return removed

    def _index(self, entry: RouteEntry) -> None:
        destination = entry.destination
        bucket = self._buckets.get(destination.prefix_len)
        if bucket is None:
            bucket = self._buckets[destination.prefix_len] = {}
            self._reprobe()
        bucket.setdefault(destination.network.value, []).append(entry)

    def _reprobe(self) -> None:
        self._probes = [
            ((0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF, self._buckets[prefix_len])
            for prefix_len in sorted(self._buckets, reverse=True)
        ]

    def add_host_route(self, host_addr: IPAddress, interface: "NetworkInterface",
                       gateway: Optional[IPAddress] = None, metric: int = 0,
                       source: Optional[IPAddress] = None) -> RouteEntry:
        """Convenience: install a /32 route for one host."""
        entry = RouteEntry(destination=Subnet(host_addr, 32), interface=interface,
                           gateway=gateway, metric=metric, source=source)
        self.add(entry)
        return entry

    def add_default(self, interface: "NetworkInterface",
                    gateway: Optional[IPAddress] = None, metric: int = 0) -> RouteEntry:
        """Convenience: install a default (0.0.0.0/0) route."""
        entry = RouteEntry(destination=DEFAULT_DESTINATION, interface=interface,
                           gateway=gateway, metric=metric)
        self.add(entry)
        return entry

    def remove_default(self) -> int:
        """Drop every default (0.0.0.0/0) route; returns count."""
        return self.remove_matching(destination=DEFAULT_DESTINATION)

    def lookup(self, dst: IPAddress, require_up: bool = True) -> Optional[RouteEntry]:
        """Best (longest-prefix, then lowest-metric, then first) match.

        An entry is eligible when its interface is up, or always with
        ``require_up=False``; a prefix whose entries are all ineligible
        falls through to the next shorter one.
        """
        self._lookups += 1
        value = dst.value
        for mask, bucket in self._probes:
            rows = bucket.get(value & mask)
            if rows is None:
                continue
            best: Optional[RouteEntry] = None
            for entry in rows:
                if ((best is None or entry.metric < best.metric)
                        and (not require_up or entry.interface.is_up)):
                    best = entry
            if best is not None:
                return best
        return None

    def entries_for(self, interface: "NetworkInterface") -> List[RouteEntry]:
        """Every entry using *interface*."""
        return [entry for entry in self._entries if entry.interface is interface]
