"""Property tests for the zero-allocation fast path.

Recycling an Event or packet must be invisible: any schedule of posts,
timers and cancellations dispatches identically with pooling on and off
(the ``set_arena_enabled`` reference switch), and a pooled ``acquire`` is
indistinguishable from a fresh construction.
"""

from hypothesis import given, settings, strategies as st

from repro.net.addressing import IPAddress
from repro.net.packet import (
    PROTO_UDP,
    AppData,
    IPPacket,
    UDPDatagram,
    release,
    set_arena_enabled,
)
from repro.sim.engine import Simulator

#: (delay, use_post_api, cancel_if_cancellable) operation triples.
operations = st.lists(
    st.tuples(st.integers(min_value=0, max_value=50_000),
              st.booleans(), st.booleans()),
    min_size=1, max_size=40)


def _drive(pooling: bool, ops) -> list:
    """Run one op schedule; nested posts force event reuse mid-run."""
    set_arena_enabled(pooling)
    try:
        sim = Simulator(seed=0)
    finally:
        set_arena_enabled(True)
    log = []

    def make(index: int, depth: int):
        def callback() -> None:
            log.append((sim.now, index, depth))
            if depth < 2:
                sim.post_later(1 + 37 * (index % 5), make(index, depth + 1))
        return callback

    for index, (delay, use_post, cancel) in enumerate(ops):
        if use_post:
            sim.post_later(delay, make(index, 0))
        else:
            handle = sim.call_later(delay, make(index, 0))
            if cancel:
                handle.cancel()
    sim.run()
    return log


@settings(max_examples=40, deadline=None)
@given(operations)
def test_pooled_and_unpooled_dispatch_identically(ops):
    assert _drive(True, ops) == _drive(False, ops)


@settings(max_examples=40, deadline=None)
@given(operations)
def test_recycled_events_never_leak_callbacks_across_runs(ops):
    # Two schedules back-to-back on one simulator: the second run reuses
    # the first run's recycled events, and must still match a fresh
    # simulator dispatching only the second schedule.
    sim = Simulator(seed=0)
    for delay, use_post, _cancel in ops:
        if use_post:
            sim.post_later(delay, lambda: None)
        else:
            sim.call_later(delay, lambda: None)
    sim.run()

    log = []
    fresh_log = []
    fresh = Simulator(seed=0)
    for index, (delay, _use_post, _cancel) in enumerate(ops):
        sim.post_at(sim.now + delay,
                    lambda index=index: log.append(index))
        fresh.post_at(fresh.now + delay,
                      lambda index=index: fresh_log.append(index))
    sim.run()
    fresh.run()
    assert log == fresh_log


ports = st.integers(min_value=0, max_value=0xFFFF)
sizes = st.integers(min_value=0, max_value=65_000)
addresses = st.integers(min_value=0, max_value=0xFFFFFFFF).map(IPAddress)


@settings(max_examples=60, deadline=None)
@given(ports, ports, sizes, addresses, addresses,
       st.integers(min_value=1, max_value=255))
def test_acquire_after_release_equals_fresh_construction(
        src_port, dst_port, size, src, dst, ttl):
    # Seed the arenas with differently-valued carcasses...
    release(IPPacket(dst, src, PROTO_UDP, AppData("old", 1), ident=7), held=1)
    release(UDPDatagram(1, 2, AppData("old", 2)), held=1)
    release(AppData("old", 3), held=1)
    # ...then acquire with new values: no field may survive from the corpse.
    payload = AppData.acquire(None, size)
    datagram = UDPDatagram.acquire(src_port, dst_port, payload)
    packet = IPPacket.acquire(src, dst, PROTO_UDP, datagram, ttl, ident=99)
    expected = IPPacket(src, dst, PROTO_UDP,
                        UDPDatagram(src_port, dst_port, AppData(None, size)),
                        ttl, ident=99)
    assert packet == expected
    assert packet.size_bytes == expected.size_bytes == 20 + 8 + size
