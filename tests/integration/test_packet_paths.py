"""Integration tests for Figure 4: the exact path packets take.

The paper's Figure 4 shows an outgoing mobile packet traversing
transport -> IP -> (policy) -> VIF -> IPIP -> IP -> physical interface.
These tests reconstruct the path from the trace and assert its shape.
"""

from repro.net.addressing import ip
from repro.net.packet import AppData
from repro.sim import ms, s
from repro.workloads import UdpEchoResponder, UdpEchoStream

HOME = ip("36.135.0.10")


def test_outgoing_tunneled_packet_takes_figure4_path(testbed):
    """One MH-originated datagram: policy decision, one encapsulation,
    outer send on the physical interface."""
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    testbed.sim.trace.clear()
    testbed.sim.trace.enable("policy", "tunnel")

    socket = testbed.mobile.udp.open(0)
    socket.sendto(AppData("one", 3), ip("36.8.0.20"), 9)
    testbed.sim.run_for(ms(100))

    # ip_rt_route is consulted at least once (the kernel calls it from
    # both the transport and IP layers); every decision says "tunnel".
    decisions = testbed.sim.trace.select("policy", "decision", host="mh")
    assert decisions
    assert all(record["mode"] == "tunnel" for record in decisions)

    encapsulations = testbed.sim.trace.select(
        "tunnel", "encapsulated", interface=testbed.mobile.vif.name)
    assert len(encapsulations) == 1
    outer = encapsulations[0]["outer"]
    # Outer header: care-of -> home agent; inner: home -> correspondent.
    assert outer.startswith(f"{testbed.addresses.mh_dept_care_of} -> "
                            f"{testbed.home_agent.address}")
    assert f"{HOME} -> 36.8.0.20" in outer
    # Exactly one encapsulation layer ever (the paper's guard).
    assert outer.count("IPIP") == 1


def test_incoming_tunneled_packet_is_decapsulated_once(testbed):
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    testbed.sim.trace.clear()
    testbed.sim.trace.enable("tunnel")
    UdpEchoResponder(testbed.mobile)
    probe = testbed.correspondent.udp.open(0)
    probe.sendto(AppData(("echo-probe", 0), 12), HOME, 7)
    testbed.sim.run_for(ms(500))

    mh_decaps = testbed.sim.trace.select("tunnel", "decapsulated", host="mh")
    assert len(mh_decaps) == 1
    assert f"36.8.0.20 -> {HOME}" in mh_decaps[0]["inner"]


def test_loopback_traffic_never_touches_mobile_ip(testbed):
    """'An application may use the local-loopback interface, and there is
    no reason to send such packets through the home agent.'"""
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    before = testbed.mobile.vif.packets_encapsulated
    got = []
    testbed.mobile.udp.open(9).on_datagram(
        lambda d, s_, sp, dst: got.append(d.content))
    testbed.mobile.udp.open(0).sendto(AppData("local", 5),
                                      ip("127.0.0.1"), 9)
    testbed.sim.run_for(ms(100))
    assert got == ["local"]
    assert testbed.mobile.vif.packets_encapsulated == before


def test_mobile_aware_socket_goes_direct(testbed):
    """A socket bound to the care-of address bypasses mobile IP entirely
    (the local role); its packets carry the care-of source on the wire."""
    care_of = testbed.visit_dept()
    testbed.sim.run_for(s(1))
    vif = testbed.mobile.vif
    encap_counter = testbed.sim.metrics.counter("tunnel", "encapsulated",
                                                iface=vif.name)
    before = (vif.packets_encapsulated, encap_counter.value)
    got = []
    testbed.correspondent.udp.open(9).on_datagram(
        lambda d, src, sp, dst: got.append(str(src)))
    bound = testbed.mobile.udp.open(0, bound_address=care_of)
    bound.sendto(AppData("direct", 6), ip("36.8.0.20"), 9)
    testbed.sim.run_for(ms(200))
    assert got == [str(care_of)]
    assert (vif.packets_encapsulated, encap_counter.value) == before


def test_reverse_tunnel_counts_match_end_to_end(testbed):
    """Every MH-originated packet under the basic protocol is encapsulated
    exactly once by the MH and decapsulated exactly once by the HA."""
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    UdpEchoResponder(testbed.correspondent)
    stream = UdpEchoStream(testbed.mobile, ip("36.8.0.20"), interval=ms(100))
    stream.start()
    testbed.sim.run_for(s(2))
    stream.stop()
    testbed.sim.run_for(s(1))
    assert stream.received == stream.sent
    assert testbed.mobile.vif.packets_encapsulated >= stream.sent
    ha_host = testbed.home_agent.host
    assert ha_host.ipip.packets_decapsulated >= stream.sent
