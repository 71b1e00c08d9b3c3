"""Datapath microbenchmarks: packets, lookups, trace gating, scenario.

Four measurements, each deterministic in *what* it does (wall time is the
only non-reproducible output):

* packet construction — slotted classes vs the old frozen dataclasses;
* Mobile Policy Table lookups — result cache on vs off, with hit rates;
* routing-table LPM lookups — the prefix index at 8 and 300 host routes,
  and right after a table mutation;
* trace emission — the ``ip`` send site with the category opted in vs at
  its default (off);

plus one macro measurement: regenerating a full testbed scenario (build,
traffic, a mid-run handoff) end to end, which is what a user actually
waits for when re-running an experiment.
"""

from __future__ import annotations

import time as _wallclock
from typing import Dict

from repro.bench.baseline import (
    BaselineAppData,
    BaselineIPPacket,
    BaselineUDPDatagram,
)
from repro.config import DEFAULT_CONFIG
from repro.core.policy import MobilePolicyTable, RoutingMode
from repro.net.addressing import IPAddress, Subnet
from repro.net.packet import PROTO_UDP, AppData, IPPacket, UDPDatagram, release
from repro.net.routing import RouteEntry, RoutingTable
from repro.sim.engine import Simulator
from repro.sim.units import ms, s
from repro.testbed.topology import build_testbed
from repro.workloads.udp_echo import UdpEchoResponder, UdpEchoStream


def _time_ns(fn, *args) -> int:
    start = _wallclock.perf_counter_ns()
    fn(*args)
    return _wallclock.perf_counter_ns() - start


# ----------------------------------------------------- packet construction

def _build_packets_current(n: int, src: IPAddress, dst: IPAddress) -> None:
    for i in range(n):
        payload = AppData(content=i, size_bytes=512)
        datagram = UDPDatagram(src_port=7, dst_port=7, payload=payload)
        IPPacket(src=src, dst=dst, protocol=PROTO_UDP, payload=datagram,
                 ident=i).decremented()


def _build_packets_pooled(n: int, src: IPAddress, dst: IPAddress) -> None:
    """The arena-backed cycle: acquire, use, release (the datapath's life)."""
    for i in range(n):
        payload = AppData.acquire(i, 512)
        datagram = UDPDatagram.acquire(7, 7, payload)
        packet = IPPacket.acquire(src, dst, PROTO_UDP, datagram, ident=i)
        copy = packet.decremented()
        release(copy, held=1)
        release(packet, held=1)
        release(datagram, held=1)
        release(payload, held=1)


def _build_packets_baseline(n: int, src: IPAddress, dst: IPAddress) -> None:
    for i in range(n):
        payload = BaselineAppData(content=i, size_bytes=512)
        datagram = BaselineUDPDatagram(src_port=7, dst_port=7,
                                       payload=payload)
        BaselineIPPacket(src=src, dst=dst, protocol=PROTO_UDP,
                         payload=datagram, ident=i).decremented()


def _packet_bench(n: int) -> Dict[str, object]:
    src = IPAddress.parse("36.135.0.10")
    dst = IPAddress.parse("36.8.0.20")
    _build_packets_baseline(2_000, src, dst)   # warm-up
    _build_packets_current(2_000, src, dst)
    _build_packets_pooled(2_000, src, dst)
    baseline_ns = _time_ns(_build_packets_baseline, n, src, dst)
    current_ns = _time_ns(_build_packets_current, n, src, dst)
    pooled_ns = _time_ns(_build_packets_pooled, n, src, dst)
    return {
        "n_packets": n,
        "baseline_ns_per_packet": baseline_ns / n,
        "current_ns_per_packet": current_ns / n,
        "pooled_ns_per_packet": pooled_ns / n,
        "speedup": baseline_ns / current_ns,
        "pooled_speedup": baseline_ns / pooled_ns,
    }


# --------------------------------------------------------- policy lookups

def _policy_table(cache_size: int) -> MobilePolicyTable:
    table = MobilePolicyTable(default_mode=RoutingMode.TUNNEL,
                              cache_size=cache_size)
    table.set_policy(Subnet(IPAddress.parse("36.8.0.0"), 24),
                     RoutingMode.LOCAL)
    table.set_policy(Subnet(IPAddress.parse("36.40.0.0"), 24),
                     RoutingMode.TRIANGLE)
    table.set_policy(Subnet(IPAddress.parse("36.0.0.0"), 8),
                     RoutingMode.ENCAP_DIRECT)
    for host in range(8):
        table.set_policy(IPAddress.parse(f"36.8.0.{100 + host}"),
                         RoutingMode.TUNNEL, origin="probe")
    return table

#: Distinct destinations the lookup loop cycles through (a mobile host
#: talks to a handful of correspondents, not the whole Internet).
POLICY_DESTINATIONS = 32


def _policy_bench(n: int) -> Dict[str, object]:
    destinations = [IPAddress.parse(f"36.8.0.{20 + i}")
                    for i in range(POLICY_DESTINATIONS)]

    def run(table: MobilePolicyTable) -> None:
        for i in range(n):
            table.lookup(destinations[i % POLICY_DESTINATIONS])

    cached, uncached = _policy_table(128), _policy_table(0)
    run(_policy_table(128))                    # warm-up
    cached_ns = _time_ns(run, cached)
    uncached_ns = _time_ns(run, uncached)
    hits = cached._cache_hit_counter.value
    misses = cached._cache_miss_counter.value
    return {
        "n_lookups": n,
        "distinct_destinations": POLICY_DESTINATIONS,
        "cached_ns_per_lookup": cached_ns / n,
        "uncached_ns_per_lookup": uncached_ns / n,
        "speedup": uncached_ns / cached_ns,
        "cache_hit_rate": hits / (hits + misses),
    }


# -------------------------------------------------------- routing lookups

class _BenchInterface:
    """The minimal interface surface RoutingTable touches."""

    is_up = True

    def __init__(self, name: str) -> None:
        self.name = name


def _routing_table(host_routes: int) -> RoutingTable:
    table = RoutingTable()
    eth = _BenchInterface("bench-eth0")
    radio = _BenchInterface("bench-strip0")
    table.add(RouteEntry(destination=Subnet(IPAddress.parse("36.8.0.0"), 24),
                         interface=eth))
    table.add(RouteEntry(destination=Subnet(IPAddress.parse("36.135.0.0"), 24),
                         interface=eth))
    table.add(RouteEntry(destination=Subnet(IPAddress.parse("36.134.0.0"), 24),
                         interface=radio))
    first_host = IPAddress.parse("36.8.0.100").value
    for host in range(host_routes):
        table.add_host_route(IPAddress(first_host + host), eth)
    table.add_default(eth, gateway=IPAddress.parse("36.8.0.1"))
    return table


#: Host-route counts the lookup is timed at: a mobile host's handful and a
#: hub router's one-route-per-attached-host.
ROUTE_COUNTS = (8, 300)


def _routing_bench(n: int) -> Dict[str, object]:
    # A quarter of the destinations hit a /32 host route, the rest fall
    # through to the /24: the same mix at every table size.
    destinations = ([IPAddress.parse(f"36.8.0.{100 + i}") for i in range(8)]
                    + [IPAddress.parse(f"36.8.0.{20 + i}") for i in range(24)])
    cycle = len(destinations)
    clock = _wallclock.perf_counter_ns

    def run(table: RoutingTable) -> None:
        for i in range(n):
            table.lookup(destinations[i % cycle])

    def after_mutation(table: RoutingTable, entry: RouteEntry) -> int:
        # Only the lookup is timed: nothing is memoized, so a lookup right
        # after a route add/remove should cost what a steady-state one does.
        total = 0
        for i in range(n):
            table.add(entry)
            table.remove(entry)
            start = clock()
            table.lookup(destinations[i % cycle])
            total += clock() - start
        return total

    def clock_overhead() -> int:
        total = 0
        for _ in range(n):
            start = clock()
            total += clock() - start
        return total

    doc: Dict[str, object] = {"n_lookups": n, "distinct_destinations": cycle}
    for routes in ROUTE_COUNTS:
        table = _routing_table(routes)
        run(table)                             # warm-up
        doc[f"ns_per_lookup_{routes}_routes"] = _time_ns(run, table) / n
    table = _routing_table(ROUTE_COUNTS[-1])
    churn = RouteEntry(destination=Subnet(IPAddress.parse("36.8.0.20"), 32),
                       interface=_BenchInterface("bench-churn0"))
    after_mutation(table, churn)               # warm-up
    lookup_ns = after_mutation(table, churn) - clock_overhead()
    doc["ns_per_lookup_after_mutation"] = max(lookup_ns, 0) / n
    return doc


# ----------------------------------------------------------- trace gating

def _trace_bench(n: int) -> Dict[str, object]:
    sim = Simulator(seed=0)
    trace = sim.trace
    packet = IPPacket(src=IPAddress.parse("36.135.0.10"),
                      dst=IPAddress.parse("36.8.0.20"),
                      protocol=PROTO_UDP,
                      payload=UDPDatagram(7, 7, AppData(None, 512)))

    def emit() -> None:
        for _ in range(n):
            if trace.wants("ip"):
                trace.emit("ip", "send", host="bench",
                           packet=packet.describe())

    # The same call site twice: "ip" opted in, then back at its default
    # (off, like every per-packet category).
    trace.enable("ip")
    enabled_ns = _time_ns(emit)
    trace.clear()
    trace.disable("ip")
    gated_ns = _time_ns(emit)
    return {
        "n_emits": n,
        "enabled_ns_per_emit": enabled_ns / n,
        "gated_ns_per_emit": gated_ns / n,
        "speedup_when_gated": enabled_ns / gated_ns,
    }


# ------------------------------------------------- scenario regeneration

def run_scenario(seed: int = 0, policy_cache: int = 128,
                 duration_ns: int = s(6)) -> Simulator:
    """The standard benchmark/guard scenario, returned for inspection.

    Figure-5 testbed, a 20 ms UDP echo stream from the mobile host to the
    department correspondent, and a mid-run handoff to the department net
    (so policy cache invalidation and route changes run under load).
    Deterministic for a given (seed, duration); the policy cache size and
    the pooling switch (:func:`repro.sim.arena.set_arena_enabled`) must not
    change any metric other than the documented cache diagnostics.
    """
    config = DEFAULT_CONFIG.with_overrides(policy_cache_size=policy_cache)
    sim = Simulator(seed=seed)
    testbed = build_testbed(sim, config, with_remote_correspondent=False,
                            with_dhcp=False)
    UdpEchoResponder(testbed.correspondent)
    stream = UdpEchoStream(testbed.mobile, testbed.addresses.ch_dept,
                           interval=ms(20))
    stream.start()
    sim.call_later(s(2), lambda: testbed.visit_dept(), label="bench-handoff")
    sim.run(until=duration_ns)
    stream.stop()
    return sim


def _scenario_bench(quick: bool) -> Dict[str, object]:
    duration = s(3) if quick else s(6)
    wall_start = _wallclock.perf_counter_ns()
    sim = run_scenario(seed=0, duration_ns=duration)
    wall_ns = _wallclock.perf_counter_ns() - wall_start
    profile = sim.profile()
    return {
        "duration_sim_ns": duration,
        "wall_ns": wall_ns,
        "events_run": profile["events_run"],
        "events_per_sec": profile["events_run"] * 1e9 / wall_ns,
    }


def run_datapath_bench(quick: bool = False) -> Dict[str, object]:
    """Run every datapath benchmark; returns the BENCH_datapath doc."""
    n = 20_000 if quick else 100_000
    return {
        "bench": "datapath",
        "quick": quick,
        "packet_construction": _packet_bench(n),
        "policy_lookup": _policy_bench(n),
        "routing_lookup": _routing_bench(n),
        "trace_emit": _trace_bench(n // 4),
        "scenario_regeneration": _scenario_bench(quick),
    }
