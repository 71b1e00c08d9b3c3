"""Unit tests for lazy trace recording (category gating)."""

from repro.sim import Simulator, VERBOSE_CATEGORIES
from repro.sim.trace import TraceRecord


def test_ordinary_categories_record_by_default():
    """Control-plane categories record by default; the per-packet ones
    (ip, tunnel, policy) stay off until a consumer enables them."""
    sim = Simulator()
    control = ("registration", "handoff", "binding", "home_agent", "tcp",
               "arp")
    per_packet = ("ip", "tunnel", "policy")
    for category in control:
        assert sim.trace.wants(category)
        sim.trace.emit(category, "event")
    assert len(sim.trace) == len(control)
    for category in per_packet:
        assert not sim.trace.wants(category)
        sim.trace.emit(category, "event")
    assert len(sim.trace) == len(control)
    sim.trace.enable(*per_packet)
    for category in per_packet:
        assert sim.trace.wants(category)
        sim.trace.emit(category, "event")
    assert [record.category for record in sim.trace] == [*control,
                                                         *per_packet]


def test_verbose_categories_are_off_by_default():
    sim = Simulator()
    for category in VERBOSE_CATEGORIES:
        assert not sim.trace.wants(category)
        sim.trace.emit(category, "noise")
    assert len(sim.trace) == 0


def test_enable_opts_verbose_category_back_in():
    sim = Simulator()
    sim.trace.enable("policy")
    assert sim.trace.wants("policy")
    sim.trace.emit("policy", "decision", destination="36.8.0.20")
    assert (sim.trace.select("policy", "decision")[0]["destination"]
            == "36.8.0.20")


def test_disable_suppresses_any_category():
    sim = Simulator()
    sim.trace.disable("registration")
    assert not sim.trace.wants("registration")
    sim.trace.emit("registration", "request_sent")
    assert len(sim.trace) == 0
    sim.trace.enable("registration")
    sim.trace.emit("registration", "request_sent")
    assert len(sim.trace) == 1


def test_global_enabled_flag_overrides_everything():
    sim = Simulator()
    sim.trace.enable("ip")
    sim.trace.enabled = False
    for category in ("ip", "registration"):
        assert not sim.trace.wants(category)
        sim.trace.emit(category, "event")
    assert len(sim.trace) == 0


def test_gated_datapath_emits_nothing_when_disabled(testbed):
    """The IP datapath stays quiet (and pays nothing) while 'ip' is off,
    as it is by default, however much traffic crosses it."""
    trace = testbed.sim.trace
    sent_before = testbed.mobile.ip.sent
    testbed.visit_dept()
    testbed.settle(duration=1_000_000_000)
    assert testbed.mobile.ip.sent > sent_before
    assert trace.select("ip") == []
    # The control plane keeps recording.
    assert trace.select("registration")


def test_trace_record_mapping_interface():
    record = TraceRecord(time=5, category="ip", event="send",
                         fields={"host": "mh"})
    assert record["host"] == "mh"
    assert record.get("absent", 42) == 42
    assert record == TraceRecord(5, "ip", "send", {"host": "mh"})
    assert record != TraceRecord(6, "ip", "send", {"host": "mh"})
