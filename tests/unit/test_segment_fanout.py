"""Shared-medium fan-out: one engine event per frame, same schedule.

An :class:`EthernetSegment` frame (and a radio limited broadcast) reaches
every other port under a single event.  The reference here is the old
one-event-per-port loop, kept test-local as :class:`PerPortSegment`: both
must produce identical deliveries, orderings and counters.
"""

from hypothesis import given, settings, strategies as st

from repro.config import DEFAULT_CONFIG, LinkTimings
from repro.net.addressing import BROADCAST_MAC, MACAddress, MACAllocator, ip
from repro.net.ethernet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.interface import EthernetInterface, InterfaceState, RadioInterface
from repro.net.link import EthernetSegment, RadioChannel
from repro.net.packet import AppData, IPPacket, PROTO_UDP, UDPDatagram
from repro.sim import MBPS, Simulator, ms
from repro.sim.units import transmission_delay

BANDWIDTH = 10 * MBPS
STRANGER_MAC = MACAddress(0x0A0000000001)  # attached to no port


def make_packet(tag=None):
    return IPPacket(src=ip("10.0.0.1"), dst=ip("10.0.0.2"), protocol=PROTO_UDP,
                    payload=UDPDatagram(1, 2, AppData(tag, 100)))


#: Every test frame has the same size, so sends and flips placed on
#: multiples of one serialization slot collide in time with deliveries.
SLOT = transmission_delay(
    EthernetFrame(src=BROADCAST_MAC, dst=BROADCAST_MAC,
                  ethertype=ETHERTYPE_IPV4, payload=make_packet()).size_bytes,
    BANDWIDTH)


class PerPortSegment(EthernetSegment):
    """Reference model: one engine event per receiving port."""

    def transmit(self, frame, sender):
        self._count_tx(frame.size_bytes)
        if self._drops():
            return
        deliver_at = self._delivery_time(frame.size_bytes)
        for port in self._ports:
            if port is sender:
                continue
            self.sim.post_at(deliver_at,
                             lambda port=port: port.deliver_frame(frame),
                             label=f"eth:{self.name}")


class HostStub:
    """Just enough of a host for ``NetworkInterface._deliver_to_host``."""

    def __init__(self, log, name):
        self.ip = self
        self._log = log
        self._name = name

    def receive_packet(self, packet, iface):
        tag = packet.payload.payload.content
        self._log.append(("host", iface.sim.now, self._name, tag))


class RecordingNic(EthernetInterface):
    """Logs every frame the segment hands it, then posts a zero-delay
    follow-up, as a receiver reacting within the same instant would."""

    log: list
    tags: dict

    def deliver_frame(self, frame):
        tag = self.tags[id(frame)]
        self.log.append(("frame", self.sim.now, self.name, tag))
        super().deliver_frame(frame)
        self.sim.post_later(
            0, lambda: self.log.append(("after", self.sim.now, self.name, tag)),
            label="after")


def make_nic(sim, name, mac, log, tags):
    nic = RecordingNic(sim, name, mac, DEFAULT_CONFIG)
    nic.log, nic.tags = log, tags
    nic.host = HostStub(log, name)
    nic.state = InterfaceState.UP
    return nic


def build(segment_cls, ports, timings=None):
    sim = Simulator(seed=7)
    segment = segment_cls(sim, "seg", timings or LinkTimings(
        latency=0, bandwidth_bps=BANDWIDTH))
    log, tags, macs = [], {}, MACAllocator()
    nics = []
    for index in range(ports):
        nic = make_nic(sim, f"eth{index}", macs.allocate(), log, tags)
        nic.attach(segment)
        nics.append(nic)
    return sim, segment, nics, log, tags


def frame_from(sender, dst, tags, tag):
    frame = EthernetFrame(src=sender.mac, dst=dst, ethertype=ETHERTYPE_IPV4,
                          payload=make_packet(tag))
    tags[id(frame)] = tag
    return frame


def dispatched(sim, label):
    return sim.metrics.snapshot().get(f"engine/dispatched{{label={label}}}", 0)


sends = st.tuples(st.just("send"), st.integers(0, 6), st.integers(0, 7),
                  st.sampled_from(["unicast", "broadcast", "stranger"]),
                  st.integers(0, 7))
flips = st.tuples(st.just("flip"), st.integers(0, 6), st.integers(0, 7),
                  st.booleans())


def run_plan(segment_cls, ports, latency_slots, loss, plan):
    timings = LinkTimings(latency=latency_slots * SLOT,
                          bandwidth_bps=BANDWIDTH, loss_rate=loss)
    sim, segment, nics, log, tags = build(segment_cls, ports, timings)
    frames = []  # pins every frame so its id() tag stays unique
    for step in plan:
        at = step[1] * SLOT
        nic = nics[step[2] % ports]
        if step[0] == "send":
            kind, target = step[3], nics[step[4] % ports]
            dst = {"unicast": target.mac, "broadcast": BROADCAST_MAC,
                   "stranger": STRANGER_MAC}[kind]
            frame = frame_from(nic, dst, tags, len(frames))
            frames.append(frame)
            sim.call_at(at, lambda frame=frame, nic=nic:
                        segment.transmit(frame, nic), label="send")
        else:
            state = InterfaceState.UP if step[3] else InterfaceState.DOWN
            sim.call_at(at, lambda nic=nic, state=state:
                        setattr(nic, "state", state), label="flip")
    sim.run()
    counters = [(nic.rx_packets, nic.dropped_down) for nic in nics]
    snapshot = {key: value for key, value in sim.metrics.snapshot().items()
                if not key.startswith(("engine/dispatched{label=eth:",
                                       "engine/queue_depth_max"))}
    delivered = segment.frames_sent - segment.frames_dropped
    return log, counters, snapshot, delivered, dispatched(sim, "eth:seg")


@given(ports=st.integers(2, 8), latency_slots=st.integers(0, 2),
       loss=st.sampled_from([0.0, 0.3]),
       plan=st.lists(st.one_of(sends, flips), min_size=1, max_size=25))
@settings(max_examples=60, deadline=None)
def test_fan_out_matches_one_event_per_port(ports, latency_slots, loss, plan):
    """Same deliveries (time, port, frame, order), same zero-delay
    follow-ups, same drop counters and snapshot as one event per port."""
    fan_log, fan_counters, fan_snap, fan_frames, fan_events = run_plan(
        EthernetSegment, ports, latency_slots, loss, plan)
    ref_log, ref_counters, ref_snap, ref_frames, ref_events = run_plan(
        PerPortSegment, ports, latency_slots, loss, plan)
    assert fan_log == ref_log
    assert fan_counters == ref_counters
    assert fan_snap == ref_snap
    assert fan_frames == ref_frames
    assert fan_events == fan_frames
    assert ref_events == ref_frames * (ports - 1)


def test_one_dispatch_per_surviving_frame():
    sim, segment, nics, _, tags = build(
        EthernetSegment, 5,
        LinkTimings(latency=ms(1), bandwidth_bps=BANDWIDTH, loss_rate=0.3))
    for index in range(40):
        sender = nics[index % 5]
        segment.transmit(frame_from(sender, BROADCAST_MAC, tags, index), sender)
    sim.run()
    survivors = segment.frames_sent - segment.frames_dropped
    assert segment.frames_sent == 40
    assert 0 < survivors < 40
    assert dispatched(sim, "eth:seg") == survivors


def test_no_listener_posts_nothing():
    sim, segment, nics, log, tags = build(EthernetSegment, 1)
    segment.transmit(frame_from(nics[0], BROADCAST_MAC, tags, 0), nics[0])
    assert sim.pending() == 0
    sim.run()
    assert log == []
    assert segment.frames_sent == 1


def test_zero_delay_reactions_run_after_every_port():
    """A receiver's zero-delay event runs only once all ports have the
    frame, exactly as when each port had its own back-to-back event."""
    sim, segment, nics, log, tags = build(EthernetSegment, 4)
    segment.transmit(frame_from(nics[0], BROADCAST_MAC, tags, 0), nics[0])
    sim.run()
    kinds = [entry[0] for entry in log if entry[0] != "host"]
    assert kinds == ["frame"] * 3 + ["after"] * 3
    assert [entry[2] for entry in log if entry[0] == "frame"] == [
        "eth1", "eth2", "eth3"]


def test_listeners_are_fixed_at_transmit_time():
    """A port attached mid-flight does not hear the frame; a port
    detached mid-flight still does."""
    sim, segment, nics, log, tags = build(EthernetSegment, 3)
    late = make_nic(sim, "late", STRANGER_MAC, log, tags)
    segment.transmit(frame_from(nics[0], BROADCAST_MAC, tags, 0), nics[0])
    late.attach(segment)
    nics[2].detach()
    sim.run()
    assert [entry[2] for entry in log if entry[0] == "frame"] == [
        "eth1", "eth2"]


def test_radio_broadcast_is_one_event_for_every_other_radio():
    sim = Simulator(seed=3)
    channel = RadioChannel(sim, "air", DEFAULT_CONFIG.radio)
    log = []
    radios = []
    for index in range(4):
        radio = RadioInterface(sim, f"r{index}", DEFAULT_CONFIG)
        radio.host = HostStub(log, radio.name)
        radio.state = InterfaceState.UP
        radio.attach(channel)
        radios.append(radio)
    channel.transmit(make_packet("hello"), ip("255.255.255.255"), radios[0])
    sim.run()
    assert log and all(entry[3] == "hello" for entry in log)
    assert sorted(entry[2] for entry in log) == ["r1", "r2", "r3"]
    assert dispatched(sim, "radio:air:bcast") == 1
