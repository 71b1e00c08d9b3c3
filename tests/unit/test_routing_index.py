"""Unit and property tests for the IP layer's exact lookup indexes.

``RoutingTable.lookup`` answers from a prefix index and ``IPStack.is_local``
from an owned-address set; both must agree with a brute-force reference
after any sequence of mutations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG
from repro.net.addressing import IPAddress, MACAllocator, Subnet, ip, subnet
from repro.net.host import Host
from repro.net.interface import EthernetInterface, InterfaceState
from repro.net.routing import DEFAULT_DESTINATION, RouteEntry, RoutingTable


class FakeInterface:
    """Just enough interface for RoutingTable: a name and an up/down bit."""

    def __init__(self, name, up=True):
        self.name = name
        self.is_up = up


def make_table():
    table = RoutingTable()
    eth = FakeInterface("eth0")
    table.add(RouteEntry(destination=subnet("10.0.0.0/24"), interface=eth))
    table.add_default(eth, gateway=ip("10.0.0.1"))
    return table, eth


# ------------------------------------------------------------ routing: unit

def test_repeat_lookup_returns_same_entry_and_counts_hits():
    table, _ = make_table()
    first = table.lookup(ip("10.0.0.5"))
    second = table.lookup(ip("10.0.0.5"))
    assert first is second
    assert table.cache_info() == {"hits": 2, "misses": 0}


def test_no_match_returns_none():
    table = RoutingTable()
    assert table.lookup(ip("1.1.1.1")) is None
    assert table.lookup(ip("1.1.1.1")) is None
    assert table.cache_info() == {"hits": 2, "misses": 0}


def test_require_up_false_ignores_liveness():
    table, eth = make_table()
    eth.is_up = False
    assert table.lookup(ip("10.0.0.5")) is None
    assert table.lookup(ip("10.0.0.5"), require_up=False) is not None


def test_mutations_take_effect_immediately():
    table, eth = make_table()
    table.lookup(ip("10.0.0.5"))
    better = RouteEntry(destination=subnet("10.0.0.5/32"),
                        interface=FakeInterface("ppp0"))
    table.add(better)
    assert table.lookup(ip("10.0.0.5")) is better
    table.remove(better)
    assert table.lookup(ip("10.0.0.5")).destination == subnet("10.0.0.0/24")
    table.remove_matching(interface=eth)
    assert table.lookup(ip("10.0.0.5")) is None
    assert len(table) == 0


def test_down_interface_falls_through_to_shorter_prefix():
    table, eth = make_table()
    fallback = RouteEntry(destination=subnet("10.0.0.0/16"),
                          interface=FakeInterface("backup0"))
    table.add(fallback)
    assert table.lookup(ip("10.0.0.5")).interface is eth
    eth.is_up = False
    assert table.lookup(ip("10.0.0.5")) is fallback
    eth.is_up = True
    assert table.lookup(ip("10.0.0.5")).interface is eth


def test_equal_metric_tie_goes_to_first_inserted():
    table = RoutingTable()
    first = RouteEntry(subnet("10.0.0.0/24"), FakeInterface("a"), metric=1)
    second = RouteEntry(subnet("10.0.0.0/24"), FakeInterface("b"), metric=1)
    cheaper = RouteEntry(subnet("10.0.0.0/24"), FakeInterface("c"), metric=0)
    table.add(first)
    table.add(second)
    assert table.lookup(ip("10.0.0.9")) is first
    table.add(cheaper)
    assert table.lookup(ip("10.0.0.9")) is cheaper
    table.remove(cheaper)
    table.remove(first)
    assert table.lookup(ip("10.0.0.9")) is second


def test_remove_takes_out_exactly_the_object_passed():
    """Regression: two dataclass-equal entries; remove(e2) must keep e1."""
    table = RoutingTable()
    iface = FakeInterface("eth0")
    e1 = RouteEntry(subnet("10.0.0.0/24"), iface)
    e2 = RouteEntry(subnet("10.0.0.0/24"), iface)
    assert e1 == e2 and e1 is not e2
    table.add(e1)
    table.add(e2)
    table.remove(e2)
    assert list(table) == [e1] and list(table)[0] is e1
    assert table.lookup(ip("10.0.0.1")) is e1
    table.remove(e1)
    assert table.lookup(ip("10.0.0.1")) is None


def test_remove_of_absent_entry_raises():
    table, _ = make_table()
    stranger = RouteEntry(subnet("10.0.0.0/24"), FakeInterface("x"))
    with pytest.raises(ValueError):
        table.remove(stranger)
    assert len(table) == 2


def test_interface_state_change_takes_effect_on_real_host(sim, lan):
    """Real interfaces need no hook: liveness is read per lookup."""
    host = lan.a
    iface = next(i for i in host.interfaces if i.name.startswith("eth"))
    dst = ip("10.0.0.2")
    assert host.ip.routes.lookup(dst) is not None
    iface.state = InterfaceState.DOWN
    assert host.ip.routes.lookup(dst) is None
    iface.state = InterfaceState.UP
    assert host.ip.routes.lookup(dst) is not None


# -------------------------------------------------------- routing: property

#: Overlapping networks, so prefixes nest and destinations hit several.
BASES = [0x0A000000, 0x0A000104, 0x0A010000, 0xC0A80509]
PREFIX_LENS = [0, 16, 24, 30, 32]
N_IFACES = 3


def _mask(prefix_len):
    return (0xFFFFFFFF << (32 - prefix_len)) & 0xFFFFFFFF if prefix_len else 0


prefix_choice = st.tuples(st.sampled_from(BASES), st.sampled_from(PREFIX_LENS))
iface_choice = st.integers(min_value=0, max_value=N_IFACES - 1)
metric_choice = st.integers(min_value=0, max_value=2)
destinations = st.one_of(
    st.tuples(st.sampled_from(BASES), st.integers(min_value=0, max_value=7))
    .map(lambda pair: IPAddress(pair[0] ^ pair[1])),
    st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPAddress),
)
operations = st.one_of(
    st.tuples(st.just("add"), prefix_choice, iface_choice, metric_choice),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("remove_matching"), st.sampled_from(["dest", "iface", "both"]),
              prefix_choice, iface_choice),
    st.tuples(st.just("add_default"), iface_choice, metric_choice),
    st.tuples(st.just("remove_default")),
    st.tuples(st.just("flip"), iface_choice),
    st.tuples(st.just("lookup"), destinations, st.booleans()),
)


def reference_lookup(entries, dst, require_up):
    """Longest prefix, then lowest metric, then first inserted."""
    eligible = [entry for entry in entries
                if dst in entry.destination
                and (not require_up or entry.interface.is_up)]
    if not eligible:
        return None
    best_len = max(entry.destination.prefix_len for entry in eligible)
    finalists = [entry for entry in eligible
                 if entry.destination.prefix_len == best_len]
    best_metric = min(entry.metric for entry in finalists)
    return next(entry for entry in finalists if entry.metric == best_metric)


@settings(max_examples=200, deadline=None)
@given(st.lists(operations, min_size=1, max_size=40),
       st.lists(destinations, min_size=1, max_size=6))
def test_lookup_matches_brute_force_under_mutation(ops, probes):
    table = RoutingTable()
    ifaces = [FakeInterface(f"if{index}") for index in range(N_IFACES)]
    reference = []
    for op in ops:
        kind = op[0]
        if kind == "add":
            (base, prefix_len), index, metric = op[1:]
            entry = RouteEntry(Subnet(IPAddress(base & _mask(prefix_len)), prefix_len),
                               ifaces[index], metric=metric)
            table.add(entry)
            reference.append(entry)
        elif kind == "remove" and reference:
            victim = reference[op[1] % len(reference)]
            table.remove(victim)
            reference = [entry for entry in reference if entry is not victim]
        elif kind == "remove_matching":
            mode, (base, prefix_len), index = op[1:]
            destination = Subnet(IPAddress(base & _mask(prefix_len)), prefix_len)
            kwargs = {}
            if mode in ("dest", "both"):
                kwargs["destination"] = destination
            if mode in ("iface", "both"):
                kwargs["interface"] = ifaces[index]
            doomed = [entry for entry in reference
                      if ("destination" not in kwargs or entry.destination == destination)
                      and ("interface" not in kwargs or entry.interface is ifaces[index])]
            assert table.remove_matching(**kwargs) == len(doomed)
            reference = [entry for entry in reference
                         if not any(entry is gone for gone in doomed)]
        elif kind == "add_default":
            reference.append(table.add_default(ifaces[op[1]], metric=op[2]))
        elif kind == "remove_default":
            before = len(reference)
            reference = [entry for entry in reference
                         if entry.destination != DEFAULT_DESTINATION]
            assert table.remove_default() == before - len(reference)
        elif kind == "flip":
            ifaces[op[1]].is_up = not ifaces[op[1]].is_up
        elif kind == "lookup":
            dst, require_up = op[1:]
            assert table.lookup(dst, require_up) is reference_lookup(
                reference, dst, require_up)
        assert len(table) == len(reference)
        assert all(got is want for got, want in zip(table, reference))
    for dst in probes:
        for require_up in (True, False):
            assert table.lookup(dst, require_up) is reference_lookup(
                reference, dst, require_up)


# ---------------------------------------------------------------- is_local

def _ethernet(sim, name):
    return EthernetInterface(sim, name, MACAllocator().allocate(), DEFAULT_CONFIG)


def test_added_and_removed_address_toggles_is_local(lan):
    host = lan.a
    iface = host.interface("eth.a")
    extra = ip("10.9.9.9")
    assert not host.ip.is_local(extra)
    iface.add_address(extra)
    assert host.ip.is_local(extra)
    iface.remove_address(extra)
    assert not host.ip.is_local(extra)
    assert host.ip.is_local(ip("10.0.0.1"))


def test_alias_address_is_local(lan):
    host = lan.a
    iface = host.interface("eth.a")
    alias = ip("10.0.0.77")
    iface.add_address(alias)
    assert iface.address == ip("10.0.0.1")
    assert host.ip.is_local(alias) and host.ip.is_local(ip("10.0.0.1"))
    assert not lan.b.ip.is_local(alias)


def test_subnet_change_moves_the_local_broadcast(lan):
    host = lan.a
    iface = host.interface("eth.a")
    assert host.ip.is_local(ip("10.0.0.255"))
    iface.subnet = subnet("10.0.0.0/25")
    assert not host.ip.is_local(ip("10.0.0.255"))
    assert host.ip.is_local(ip("10.0.0.127"))


def test_interface_configured_before_attach_is_local_once_added(sim):
    host = Host(sim, "late", DEFAULT_CONFIG)
    iface = _ethernet(sim, "eth.late")
    iface.subnet = subnet("172.16.0.0/24")
    iface.add_address(ip("172.16.0.5"))
    assert not host.ip.is_local(ip("172.16.0.5"))
    host.add_interface(iface)
    assert host.ip.is_local(ip("172.16.0.5"))
    assert host.ip.is_local(ip("172.16.0.255"))


def test_loopback_and_limited_broadcast_are_always_local(sim):
    host = Host(sim, "bare", DEFAULT_CONFIG)
    for text in ("127.0.0.1", "127.255.3.4", "255.255.255.255"):
        assert host.ip.is_local(ip(text))
    for text in ("128.0.0.1", "126.255.255.255", "10.0.0.1", "0.0.0.0"):
        assert not host.ip.is_local(ip(text))
