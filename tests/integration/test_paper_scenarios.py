"""Integration tests for the paper's core scenarios (Figures 1, 2, 5).

These tests exercise whole-system behaviour on the Figure 5 testbed: the
correspondent only ever addresses the mobile host's home address, and the
infrastructure (home agent, proxy ARP, tunnels) does the rest.
"""

from repro.net.addressing import ip
from repro.sim import Simulator, ms, s
from repro.testbed import build_testbed
from repro.workloads import UdpEchoResponder, UdpEchoStream

HOME = ip("36.135.0.10")


def test_figure1_home_then_away_then_home(testbed):
    """The Figure 1 narrative: direct delivery at home, tunneled away."""
    a = testbed.addresses
    UdpEchoResponder(testbed.mobile)
    stream = UdpEchoStream(testbed.correspondent, HOME, interval=ms(100))
    stream.start()
    testbed.sim.run_for(s(1))

    at_home_received = stream.received
    assert at_home_received > 0
    assert testbed.home_agent.vif.packets_encapsulated == 0  # no tunneling yet

    # Move to the department network.
    testbed.visit_dept()
    testbed.sim.run_for(s(2))
    away_received = stream.received
    assert away_received > at_home_received
    assert testbed.home_agent.vif.packets_encapsulated > 0
    assert testbed.mobile.ipip.packets_decapsulated > 0

    # And back home.
    testbed.move_mh_cable(testbed.home_segment)
    testbed.mobile.stop_visiting(testbed.mh_eth)
    testbed.mobile.come_home(testbed.mh_eth, gateway=a.router_home)
    tunneled_so_far = testbed.home_agent.vif.packets_encapsulated
    testbed.sim.run_for(s(2))
    stream.stop()
    testbed.sim.run_for(s(1))
    assert stream.received > away_received
    # Back home, nothing more is tunneled (plus at most one in-flight).
    assert testbed.home_agent.vif.packets_encapsulated <= tunneled_so_far + 1


def test_figure2_care_of_is_mobile_hosts_own_address(testbed):
    """Without an FA, the care-of address belongs to the MH itself and the
    router's ARP resolves it straight to the MH's interface."""
    care_of = testbed.visit_dept()
    testbed.sim.run_for(s(1))
    assert testbed.home_agent.current_care_of(HOME) == care_of
    assert testbed.mh_eth.owns_address(care_of)
    # Drive one packet so the router ARPs for the care-of address.
    results = []
    testbed.correspondent.icmp.ping(HOME, on_reply=results.append,
                                    on_timeout=lambda: results.append(None))
    testbed.sim.run_for(s(2))
    assert results and results[0] is not None
    router_dept_iface = testbed.router.interface("eth1.router")
    assert router_dept_iface.arp.lookup(care_of) == testbed.mh_eth.mac


def test_correspondent_never_sees_the_care_of_address(testbed):
    """Transparency: every packet the CH receives has the home source."""
    testbed.sim.trace.enable("ip")
    testbed.visit_dept()
    UdpEchoResponder(testbed.mobile)
    stream = UdpEchoStream(testbed.correspondent, HOME, interval=ms(100))
    stream.start()
    testbed.sim.run_for(s(2))
    stream.stop()
    testbed.sim.run_for(s(1))
    assert stream.received > 0
    care_of = str(testbed.addresses.mh_dept_care_of)
    received = testbed.sim.trace.select("ip", "receive", host="ch")
    assert received
    for record in received:
        packet = record["packet"]
        assert not packet.startswith(f"{care_of} ->")


def test_remote_correspondent_gets_similar_results(full_testbed):
    """'We received similar results for a correspondent host located on a
    campus network outside the department.'"""
    testbed = full_testbed
    testbed.visit_dept()
    testbed.sim.run_for(s(1))  # let the registration land first
    UdpEchoResponder(testbed.mobile)
    stream = UdpEchoStream(testbed.remote_correspondent, HOME,
                           interval=ms(100))
    stream.start()
    testbed.sim.run_for(s(2))
    stream.stop()
    testbed.sim.run_for(s(1))
    assert stream.sent > 0
    assert stream.received == stream.sent


def test_separate_home_agent_intercepts_via_proxy_arp():
    """With the HA on its own host, interception really rides proxy ARP:
    the router hands MH-bound packets to the HA's MAC."""
    sim = Simulator(seed=55)
    testbed = build_testbed(sim, separate_home_agent=True,
                            with_remote_correspondent=False, with_dhcp=False)
    testbed.visit_dept()
    sim.run_for(s(1))
    UdpEchoResponder(testbed.mobile)
    stream = UdpEchoStream(testbed.correspondent, HOME, interval=ms(100))
    stream.start()
    sim.run_for(s(2))
    stream.stop()
    sim.run_for(s(1))
    assert stream.received == stream.sent
    # The router's home-side ARP entry for the MH points at the HA host.
    router_home_iface = testbed.router.interface("eth0.router")
    ha_iface = testbed.home_agent.home_interface
    assert router_home_iface.arp.lookup(HOME) == ha_iface.mac
    assert testbed.home_agent.vif.packets_encapsulated > 0


def test_two_simultaneous_visits_do_not_interfere(testbed):
    """Re-registration from a second location supersedes the first."""
    testbed.visit_dept()
    testbed.sim.run_for(s(1))
    first = testbed.home_agent.current_care_of(HOME)
    testbed.connect_radio(register=True)
    testbed.sim.run_for(s(2))
    second = testbed.home_agent.current_care_of(HOME)
    assert first != second
    assert second == testbed.addresses.mh_radio
