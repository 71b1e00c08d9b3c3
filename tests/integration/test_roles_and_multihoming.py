"""Section 5.2's two-roles design, exercised end to end.

"A mobile host visiting a foreign network really has two distinct roles
to play" — the home role (transparent mobility) and the local role
(participation in the visited network).  These tests run both roles
*simultaneously* and check they do not interfere, including the
multihoming case the paper cites against full transparency:
"applications would not be able to use two different network services at
once, even if they wished to take advantage of their different
characteristics for different purposes."
"""

from repro.net.addressing import ip
from repro.net.packet import AppData
from repro.sim import ms, s
from repro.workloads import UdpEchoResponder, UdpEchoStream

HOME = ip("36.135.0.10")


def test_home_and_local_roles_run_concurrently(testbed):
    care_of = testbed.visit_dept()
    testbed.sim.run_for(s(1))

    # Home role: a long-running echo stream to the home address.
    UdpEchoResponder(testbed.mobile)
    home_stream = UdpEchoStream(testbed.correspondent, HOME,
                                interval=ms(100))
    home_stream.start()

    # Local role: the visited network's management station pings the
    # care-of address; the MH answers from the care-of address.
    probes = []
    for index in range(5):
        testbed.sim.call_later(
            ms(300) * (index + 1),
            lambda: testbed.correspondent.icmp.ping(
                care_of, on_reply=probes.append,
                on_timeout=lambda: probes.append(None)))
    testbed.sim.run_for(s(3))
    home_stream.stop()
    testbed.sim.run_for(s(1))

    assert home_stream.received == home_stream.sent
    assert len(probes) == 5 and all(rtt is not None for rtt in probes)


def test_mobile_aware_app_uses_second_interface_concurrently(testbed):
    """Two services at once: ordinary traffic tunnels over Ethernet while
    a mobile-aware application explicitly uses the radio."""
    testbed.visit_dept()
    testbed.connect_radio(register=False)
    testbed.sim.run_for(s(1))
    testbed.sim.trace.enable("tunnel")

    # The ordinary application: unbound socket, mobile IP over ethernet.
    UdpEchoResponder(testbed.mobile)
    ordinary = UdpEchoStream(testbed.correspondent, HOME, interval=ms(200))
    ordinary.start()

    # The mobile-aware application: bound to the radio address, talking
    # to the router's radio side directly.
    radio_replies = []
    router_radio_addr = testbed.addresses.router_radio
    echo_socket = testbed.router.udp.open(7777)
    echo_socket.on_datagram(
        lambda data, src, sp, dst: echo_socket.sendto(data, src, sp))
    aware = testbed.mobile.udp.open(0,
                                    bound_address=testbed.addresses.mh_radio)
    aware.on_datagram(lambda data, src, sp, dst: radio_replies.append(data.content))

    for index in range(4):
        testbed.sim.call_later(ms(100) + ms(400) * index,
                               lambda index=index: aware.sendto(
                                   AppData(("radio", index), 16),
                                   router_radio_addr, 7777))
    testbed.sim.run_for(s(4))
    ordinary.stop()
    testbed.sim.run_for(s(2))

    assert ordinary.received == ordinary.sent       # home role untouched
    assert len(radio_replies) == 4                  # local role worked
    # The radio traffic was NOT tunneled: it's outside mobile IP.
    encapsulations = testbed.sim.trace.select(
        "tunnel", "encapsulated", interface=testbed.mobile.vif.name)
    assert encapsulations                           # the home role tunneled
    for record in encapsulations:
        assert "7777" not in record["outer"]


def test_radio_traffic_really_used_the_radio(testbed):
    """The bound socket's packets leave through the radio device."""
    testbed.visit_dept()
    testbed.connect_radio(register=False)
    testbed.sim.run_for(s(1))
    tx_before = testbed.mh_radio.tx_packets
    aware = testbed.mobile.udp.open(0,
                                    bound_address=testbed.addresses.mh_radio)
    aware.sendto(AppData("x", 8), testbed.addresses.router_radio, 9)
    testbed.sim.run_for(s(1))
    assert testbed.mh_radio.tx_packets == tx_before + 1


def test_loopback_and_broadcast_are_outside_mobile_ip(testbed):
    """Two more of Figure 4's 'outside the scope of mobile IP' cases."""
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    encaps_before = testbed.mobile.vif.packets_encapsulated

    got = []
    testbed.mobile.udp.open(1234).on_datagram(
        lambda data, src, sp, dst: got.append(data.content))
    local = testbed.mobile.udp.open(0)
    local.sendto(AppData("loop", 4), ip("127.0.0.1"), 1234)

    # A subnet broadcast on the visited network (local role by nature).
    bcast = testbed.mobile.udp.open(0)
    bcast.sendto(AppData("everyone", 8),
                 testbed.addresses.dept_net.broadcast, 4321,
                 via=testbed.mh_eth)
    testbed.sim.run_for(s(1))
    assert got == ["loop"]
    assert testbed.mobile.vif.packets_encapsulated == encaps_before
