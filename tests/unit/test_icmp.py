"""Unit tests for ICMP: ping, errors, redirects, the local-role echo rule."""

from repro.net.addressing import ip
from repro.net.icmp import TYPE_REDIRECT, ICMPMessage
from repro.net.packet import IPPacket, PROTO_ICMP
from repro.sim import ms


def test_ping_reply_measures_rtt(lan):
    rtts = []
    lan.a.icmp.ping(ip("10.0.0.2"), on_reply=rtts.append,
                    on_timeout=lambda: rtts.append(None))
    lan.run()
    assert rtts and rtts[0] is not None
    assert ms(0.1) < rtts[0] < ms(10)


def test_ping_timeout_fires_exactly_once(lan):
    outcomes = []
    lan.a.icmp.ping(ip("10.0.0.99"), on_reply=lambda rtt: outcomes.append("reply"),
                    on_timeout=lambda: outcomes.append("timeout"),
                    timeout=ms(500))
    lan.run(5000)
    assert outcomes == ["timeout"]


def test_late_reply_after_timeout_is_ignored(lan):
    """A reply arriving after the timeout must not fire on_reply."""
    outcomes = []
    # Timeout shorter than the LAN RTT is impossible to hit here, so
    # simulate by setting an absurdly small timeout.
    lan.a.icmp.ping(ip("10.0.0.2"), on_reply=lambda rtt: outcomes.append("reply"),
                    on_timeout=lambda: outcomes.append("timeout"),
                    timeout=1)
    lan.run()
    assert outcomes == ["timeout"]


def test_echo_reply_sources_from_probed_address(lan):
    """Section 5.2: a ping of a particular address is answered *from* that
    address — the local role."""
    second = ip("10.0.0.42")
    lan.b.interfaces[1].add_address(second)
    replies = []
    records = lan.sim.trace
    records.enable("ip")
    lan.a.icmp.ping(second, on_reply=replies.append,
                    on_timeout=lambda: replies.append(None))
    lan.run()
    assert replies and replies[0] is not None
    sends = [r for r in records.select("ip", "send", host="b")
             if "ICMP" in r["packet"]]
    assert sends and sends[-1]["packet"].startswith("10.0.0.42 ->")


def test_echoes_answered_counter(lan):
    lan.a.icmp.ping(ip("10.0.0.2"), on_reply=lambda rtt: None,
                    on_timeout=lambda: None)
    lan.run()
    assert lan.b.icmp.echoes_answered == 1


def test_redirect_installs_host_route(lan):
    iface = lan.a.interfaces[1]
    message = ICMPMessage(icmp_type=TYPE_REDIRECT,
                          body={"destination": ip("99.0.0.1"),
                                "gateway": ip("10.0.0.77")})
    packet = IPPacket(src=ip("10.0.0.2"), dst=ip("10.0.0.1"),
                      protocol=PROTO_ICMP, payload=message)
    lan.a.ip.receive_packet(packet, iface)
    lan.run()
    assert lan.a.icmp.redirects_received == 1
    entry = lan.a.ip.routes.lookup(ip("99.0.0.1"))
    assert entry is not None and entry.gateway == ip("10.0.0.77")


def test_redirects_can_be_disabled(lan):
    lan.a.icmp.accept_redirects = False
    message = ICMPMessage(icmp_type=TYPE_REDIRECT,
                          body={"destination": ip("99.0.0.1"),
                                "gateway": ip("10.0.0.77")})
    packet = IPPacket(src=ip("10.0.0.2"), dst=ip("10.0.0.1"),
                      protocol=PROTO_ICMP, payload=message)
    lan.a.ip.receive_packet(packet, iface=lan.a.interfaces[1])
    lan.run()
    assert lan.a.ip.routes.lookup(ip("99.0.0.1")) is None


def test_router_emits_redirect_for_same_interface_forwarding(lan):
    """Forwarding back out the arrival interface advises the sender."""
    router = lan.b
    router.ip.forwarding = True
    router.ip.routes.add_host_route(ip("99.0.0.1"), router.interfaces[1],
                                    gateway=ip("10.0.0.3"))
    lan.host("10.0.0.3")
    lan.a.ip.routes.add_default(lan.a.interfaces[1], gateway=ip("10.0.0.2"))
    lan.a.udp.open(0).sendto(__import__("repro.net.packet",
                                        fromlist=["AppData"]).AppData("x", 4),
                             ip("99.0.0.1"), 9)
    lan.run()
    assert lan.a.icmp.redirects_received >= 1
    entry = lan.a.ip.routes.lookup(ip("99.0.0.1"))
    assert entry is not None and entry.gateway == ip("10.0.0.3")


def test_dest_unreachable_not_sent_for_icmp(lan):
    """No ICMP errors about ICMP (error storm guard)."""
    lan.b.ip.forwarding = True
    probe = []
    lan.a.icmp.ping(ip("88.0.0.1"), on_reply=lambda rtt: None,
                    on_timeout=lambda: probe.append("timeout"),
                    timeout=ms(800))
    # a has no route; the ping dies locally without an ICMP error loop.
    lan.run(3000)
    assert probe == ["timeout"]
