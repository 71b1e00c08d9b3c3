"""Event-pool and packet-arena safety: recycling must never leak state."""

import pytest

from repro.net.addressing import IPAddress
from repro.net.packet import (
    PROTO_UDP,
    AppData,
    IPPacket,
    UDPDatagram,
    arena_enabled,
    release,
    set_arena_enabled,
)
from repro.sim.arena import ARENA_CAP, arena_stats
from repro.sim.engine import Simulator

SRC = IPAddress.parse("36.135.0.10")
DST = IPAddress.parse("36.8.0.20")


@pytest.fixture(autouse=True)
def fresh_arenas():
    """Drain every packet arena before and after each test (pools are
    process-global, and these tests inspect their exact contents)."""
    set_arena_enabled(False)
    set_arena_enabled(True)
    yield
    set_arena_enabled(False)
    set_arena_enabled(True)


# ------------------------------------------------------------- event pool

def test_post_events_recycle_with_callback_cleared():
    sim = Simulator()
    sim.post_later(10, lambda: None, "a")
    sim.post_later(20, lambda: None, "b")
    sim.run()
    assert len(sim._event_pool) == 2
    for event in sim._event_pool:
        # A pooled event holding its old callback would pin the closure
        # (and everything it captures) alive — the classic arena leak.
        assert event.callback is None
        assert event._owner is None


def test_recycled_event_runs_only_its_new_callback():
    sim = Simulator()
    ran = []
    sim.post_later(10, lambda: ran.append("first"))
    sim.run()
    recycled = sim._event_pool[0]
    sim.post_later(10, lambda: ran.append("second"))
    assert sim._event_pool == []  # the pooled event was reused...
    sim.run()
    assert ran == ["first", "second"]  # ...and ran the new callback once
    assert sim._event_pool == [recycled]


def test_call_at_events_are_never_pooled():
    sim = Simulator()
    handle = sim.call_at(10, lambda: None)
    sim.call_later(20, lambda: None)
    sim.run()
    # Handles escape to callers (handle.cancel() must stay valid), so
    # call_at/call_later events are excluded from recycling.
    assert sim._event_pool == []
    assert not handle.cancelled


def test_cancelled_events_are_not_pooled():
    sim = Simulator()
    sim.call_later(10, lambda: None).cancel()
    sim.post_later(20, lambda: None)
    sim.run()
    assert len(sim._event_pool) == 1  # only the post event recycled


def test_pooling_off_disables_the_event_pool():
    set_arena_enabled(False)
    sim = Simulator()
    set_arena_enabled(True)  # the capacity is fixed when the sim is built
    sim.post_later(10, lambda: None)
    sim.run()
    sim.post_later(10, lambda: None)
    sim.run()
    assert sim._event_pool == []
    profile = sim.profile()
    assert profile["pooling"] is False
    assert profile["event_pool"]["reuses"] == 0
    assert Simulator().profile()["pooling"] is True


def test_pool_reuses_surface_in_profile():
    sim = Simulator()
    sim.post_later(10, lambda: None)
    sim.run()
    sim.post_later(10, lambda: None)
    sim.run()
    profile = sim.profile()
    assert profile["event_pool"]["reuses"] == 1
    assert sim.metrics.counter("engine", "pool_reuses").value == 1


def test_unprofiled_snapshot_has_no_pool_counter():
    sim = Simulator()
    sim.post_later(10, lambda: None)
    sim.run()
    sim.post_later(10, lambda: None)
    sim.run()
    # The lazy counter only materialises via profile(); a plain snapshot
    # stays byte-identical to an unpooled run.
    assert "engine/pool_reuses" not in sim.metrics.snapshot()


# ---------------------------------------------------------- packet arenas

def _packet(ident=1):
    return IPPacket(SRC, DST, PROTO_UDP, UDPDatagram(7, 9, AppData(None, 64)),
                    ident=ident)


def test_release_recycles_a_solo_reference():
    packet = _packet()
    assert release(packet, held=1) is True
    assert arena_stats()["IPPacket"]["free"] == 1


def test_release_vetoes_when_another_reference_exists():
    packet = _packet()
    alias = packet  # noqa: F841 - the extra reference under test
    assert release(packet, held=1) is False
    assert arena_stats()["IPPacket"]["free"] == 0


def test_double_release_is_self_protecting():
    packet = _packet()
    assert release(packet, held=1) is True
    # The pool's own reference now raises the refcount past the guard, so
    # a buggy second release cannot create a double-free.
    assert release(packet, held=1) is False
    assert arena_stats()["IPPacket"]["free"] == 1


def test_release_clears_reference_slots():
    packet = _packet()
    release(packet, held=1)
    pooled = IPPacket._pool[-1]
    assert pooled.src is None and pooled.dst is None and pooled.payload is None


def test_acquire_reuses_and_fully_reinitialises():
    release(_packet(ident=1), held=1)
    pooled = IPPacket._pool[-1]
    fresh = IPPacket.acquire(DST, SRC, PROTO_UDP, AppData(None, 100),
                             ttl=9, ident=42)
    assert fresh is pooled
    assert (fresh.src, fresh.dst, fresh.ttl, fresh.ident) == (DST, SRC, 9, 42)
    assert fresh.size_bytes == 20 + 100
    assert fresh == IPPacket(DST, SRC, PROTO_UDP, AppData(None, 100),
                             ttl=9, ident=42)


def test_acquire_validation_matches_constructor():
    release(UDPDatagram(7, 9), held=1)
    with pytest.raises(ValueError):
        UDPDatagram.acquire(-1, 9)
    with pytest.raises(ValueError):
        AppData.acquire(None, -5)


def test_disabled_arena_never_recycles():
    set_arena_enabled(False)
    assert not arena_enabled()
    packet = _packet()
    assert release(packet, held=1) is False
    assert arena_stats()["IPPacket"]["free"] == 0
    fresh = IPPacket.acquire(SRC, DST, PROTO_UDP, AppData(None, 1))
    assert isinstance(fresh, IPPacket)  # acquire still works, unpooled


def test_disabling_drains_existing_pools():
    release(_packet(), held=1)
    assert arena_stats()["IPPacket"]["free"] == 1
    set_arena_enabled(False)
    set_arena_enabled(True)
    assert arena_stats()["IPPacket"]["free"] == 0


def test_pool_is_capped():
    for i in range(ARENA_CAP + 10):
        release(AppData(None, i), held=1)
    assert arena_stats()["AppData"]["free"] == ARENA_CAP
