"""Unit tests for the IP layer: delivery, forwarding, hooks."""

import pytest

from repro.net.addressing import ip
from repro.net.packet import AppData, IPPacket, PROTO_UDP, UDPDatagram
from repro.net.routing import RouteResult
from repro.sim import ms


def datagram_packet(src, dst, port=9, size=10):
    return IPPacket(src=ip(src), dst=ip(dst), protocol=PROTO_UDP,
                    payload=UDPDatagram(5000, port, AppData("x", size)))


def test_local_delivery_and_demux(lan):
    got = []
    lan.b.udp.open(9).on_datagram(lambda d, s, sp, dst: got.append((d.content, str(s))))
    lan.a.udp.open(0).sendto(AppData("hello", 5), ip("10.0.0.2"), 9)
    lan.run()
    assert got == [("hello", "10.0.0.1")]


def test_send_to_own_address_loops_back(lan):
    got = []
    lan.a.udp.open(9).on_datagram(lambda d, s, sp, dst: got.append(d.content))
    lan.a.udp.open(0).sendto(AppData("self", 4), ip("10.0.0.1"), 9)
    lan.run()
    assert got == ["self"]


def test_no_route_is_counted(lan):
    lan.a.udp.open(0).sendto(AppData("x", 1), ip("99.0.0.1"), 9)
    lan.run()
    assert lan.a.ip.dropped_no_route == 1


def test_not_local_without_forwarding_drops(lan):
    packet = datagram_packet("10.0.0.1", "99.0.0.1")
    lan.b.ip.receive_packet(packet, lan.b.interfaces[1])
    assert lan.b.ip.dropped_not_local == 1


def test_forwarding_decrements_ttl(lan):
    lan.b.ip.forwarding = True
    seen = []
    third = lan.host("10.0.0.3")
    third.udp.open(9).on_datagram(lambda d, s, sp, dst: seen.append(d))
    packet = datagram_packet("10.0.0.1", "10.0.0.3")
    lan.b.ip.receive_packet(packet, lan.b.interfaces[1])
    lan.run()
    assert lan.b.ip.forwarded == 1


def test_ttl_expiry_drops_and_reports(lan):
    lan.b.ip.forwarding = True
    packet = IPPacket(src=ip("10.0.0.1"), dst=ip("10.0.0.3"),
                      protocol=PROTO_UDP,
                      payload=UDPDatagram(1, 2, AppData("x", 1)), ttl=1)
    lan.b.ip.receive_packet(packet, lan.b.interfaces[1])
    lan.run()
    assert lan.b.ip.dropped_ttl == 1
    # The sender hears about it via ICMP time exceeded.
    assert lan.sim.trace.select("icmp", "error_received", host="a")


def test_forward_filter_blocks(lan):
    lan.b.ip.forwarding = True
    lan.b.ip.forward_filter = lambda packet, iface: False
    lan.host("10.0.0.3")
    lan.b.ip.receive_packet(datagram_packet("10.0.0.1", "10.0.0.3"),
                            lan.b.interfaces[1])
    lan.run()
    assert lan.b.ip.dropped_filtered == 1
    assert lan.b.ip.forwarded == 0


def test_route_hook_takes_over(lan):
    calls = []
    loop = lan.a.loopback

    def hook(dst, src_hint, default):
        calls.append((dst, src_hint))
        return RouteResult(interface=loop, source=ip("10.0.0.1"))

    lan.a.ip.route_hook = hook
    got = []
    lan.a.udp.open(9).on_datagram(lambda d, s, sp, dst: got.append(d.content))
    lan.a.udp.open(0).sendto(AppData("looped", 6), ip("10.0.0.2"), 9)
    lan.run()
    assert calls
    # The hook redirected the send into the loopback; nothing on the wire.
    assert lan.b.udp.datagrams_dropped_no_port == 0


def test_route_hook_none_falls_through(lan):
    lan.a.ip.route_hook = lambda dst, src_hint, default: None
    got = []
    lan.b.udp.open(9).on_datagram(lambda d, s, sp, dst: got.append(d.content))
    lan.a.udp.open(0).sendto(AppData("thru", 4), ip("10.0.0.2"), 9)
    lan.run()
    assert got == ["thru"]


def test_duplicate_protocol_registration_rejected(lan):
    with pytest.raises(ValueError):
        lan.a.ip.register_protocol(PROTO_UDP, lambda packet, iface: None)


def test_unknown_protocol_is_traced_not_fatal(lan):
    packet = IPPacket(src=ip("10.0.0.2"), dst=ip("10.0.0.1"), protocol=99,
                      payload=AppData("?", 4))
    lan.sim.trace.enable("ip")
    lan.a.ip.receive_packet(packet, lan.a.interfaces[1])
    assert lan.sim.trace.select("ip", "no_protocol", host="a")


def test_next_hop_via_on_link_and_gateway(lan):
    iface = lan.a.interfaces[1]
    # On-link destination: next hop is the destination itself.
    assert lan.a.ip._next_hop_via(ip("10.0.0.7"), iface) == ip("10.0.0.7")
    # Off-link with a default gateway on the interface.
    lan.a.ip.routes.add_default(iface, gateway=ip("10.0.0.254"))
    assert lan.a.ip._next_hop_via(ip("99.0.0.1"), iface) == ip("10.0.0.254")
    # Broadcast goes direct.
    assert lan.a.ip._next_hop_via(ip("255.255.255.255"), iface).is_limited_broadcast


def test_next_hop_via_prefers_specific_host_route(lan):
    iface = lan.a.interfaces[1]
    lan.a.ip.routes.add_default(iface, gateway=ip("10.0.0.254"))
    lan.a.ip.routes.add_host_route(ip("99.0.0.1"), iface,
                                   gateway=ip("10.0.0.9"))
    assert lan.a.ip._next_hop_via(ip("99.0.0.1"), iface) == ip("10.0.0.9")


def test_source_selection_uses_interface_primary(lan):
    route = lan.a.ip.ip_rt_route(ip("10.0.0.2"))
    assert route is not None
    assert route.source == ip("10.0.0.1")


def test_source_hint_is_respected(lan):
    route = lan.a.ip.ip_rt_route(ip("10.0.0.2"), ip("10.0.0.42"))
    assert route.source == ip("10.0.0.42")
