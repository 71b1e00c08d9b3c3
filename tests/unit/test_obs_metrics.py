"""Unit tests for the repro.obs metrics registry and exporters."""

import json

import pytest

from repro.obs import MetricsRegistry, format_report, snapshot_to_json
from repro.obs.export import trace_to_jsonl
from repro.sim import Simulator, ms, s
from repro.testbed import build_testbed


# ------------------------------------------------------------------- counters

def test_counter_counts_and_is_monotonic():
    registry = MetricsRegistry()
    counter = registry.counter("tcp", "retransmits", host="mh")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_counter_get_or_create_returns_same_object():
    registry = MetricsRegistry()
    first = registry.counter("ip", "forwards", host="router")
    second = registry.counter("ip", "forwards", host="router")
    assert first is second


def test_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("ip", "forwards")
    with pytest.raises(TypeError):
        registry.gauge("ip", "forwards")
    with pytest.raises(TypeError):
        registry.histogram("ip", "forwards")


# --------------------------------------------------------------------- gauges

def test_gauge_moves_both_ways_and_tracks_high_water():
    registry = MetricsRegistry()
    gauge = registry.gauge("engine", "queue_depth")
    gauge.set(7)
    gauge.dec(3)
    assert gauge.value == 4
    gauge.set_max(2)
    assert gauge.value == 4  # lower values don't pull the mark down
    gauge.set_max(9)
    assert gauge.value == 9


# ----------------------------------------------------------------- histograms

def test_histogram_buckets_are_cumulative():
    registry = MetricsRegistry()
    hist = registry.histogram("handoff", "latency_ms", buckets=(1, 10, 100))
    for value in (0.5, 5, 5, 50, 5000):
        hist.observe(value)
    assert hist.count == 5
    assert hist.mean == pytest.approx((0.5 + 5 + 5 + 50 + 5000) / 5)
    assert hist.minimum == 0.5 and hist.maximum == 5000
    assert hist.cumulative_buckets() == [
        ("le_1", 1), ("le_10", 3), ("le_100", 4), ("le_inf", 5)]


def test_histogram_rejects_unsorted_buckets():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.histogram("x", "y", buckets=(10, 1))


# ------------------------------------------------------------ label isolation

def test_labels_isolate_metrics():
    registry = MetricsRegistry()
    a = registry.counter("link", "tx_frames", link="net-a")
    b = registry.counter("link", "tx_frames", link="net-b")
    a.inc(3)
    assert b.value == 0
    snap = registry.snapshot()
    assert snap["link/tx_frames{link=net-a}"] == 3
    assert snap["link/tx_frames{link=net-b}"] == 0


def test_label_order_does_not_matter():
    registry = MetricsRegistry()
    first = registry.counter("x", "y", a="1", b="2")
    second = registry.counter("x", "y", b="2", a="1")
    assert first is second


# ------------------------------------------------------------------ snapshots

def test_snapshot_keys_are_sorted():
    registry = MetricsRegistry()
    registry.counter("z", "last")
    registry.counter("a", "first")
    keys = list(registry.snapshot())
    assert keys == sorted(keys)


def test_snapshot_flattens_histograms():
    registry = MetricsRegistry()
    hist = registry.histogram("reg", "latency_ms", buckets=(10, 100))
    hist.observe(4)
    snap = registry.snapshot()
    assert snap["reg/latency_ms:count"] == 1
    assert snap["reg/latency_ms:sum"] == 4
    assert snap["reg/latency_ms:le_10"] == 1
    assert snap["reg/latency_ms:le_inf"] == 1


def test_same_seed_runs_produce_byte_identical_snapshots():
    def one_run():
        sim = Simulator(seed=99)
        testbed = build_testbed(sim)
        testbed.visit_dept()
        sim.run_for(s(4))
        return snapshot_to_json(sim.metrics)

    assert one_run() == one_run()


def test_different_seeds_may_differ_but_share_keys():
    def keys_for(seed):
        sim = Simulator(seed=seed)
        testbed = build_testbed(sim)
        testbed.visit_dept()
        sim.run_for(s(2))
        return set(sim.metrics.snapshot())

    assert keys_for(1) == keys_for(2)


# -------------------------------------------------------------------- merging

def test_merged_registries_sum_counters_and_histograms():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("ip", "forwards").inc(2)
    b.counter("ip", "forwards").inc(3)
    b.counter("ip", "ttl_drops").inc(1)
    a.histogram("h", "lat", buckets=(10,)).observe(1)
    b.histogram("h", "lat", buckets=(10,)).observe(2)
    merged = MetricsRegistry.merged([a, b])
    snap = merged.snapshot()
    assert snap["ip/forwards"] == 5
    assert snap["ip/ttl_drops"] == 1
    assert snap["h/lat:count"] == 2
    # Merging mutates neither source.
    assert a.snapshot()["ip/forwards"] == 2


# ------------------------------------------------------------------ exporters

def test_format_report_groups_by_component():
    registry = MetricsRegistry()
    registry.counter("tcp", "retransmits", host="mh").inc(2)
    registry.histogram("registration", "latency_ms", host="mh").observe(4.8)
    report = format_report(registry)
    assert "[tcp]" in report and "[registration]" in report
    assert "retransmits{host=mh}" in report
    assert "count=1" in report


def test_trace_jsonl_round_trips():
    sim = Simulator(seed=1)
    sim.trace.enable("ip")
    sim.trace.emit("ip", "send", host="mh", size=100)
    sim.call_later(ms(1), lambda: None)
    sim.run()
    lines = trace_to_jsonl(sim.trace).strip().splitlines()
    assert len(lines) == len(sim.trace.records)
    first = json.loads(lines[0])
    assert first["category"] == "ip" and first["event"] == "send"
    assert first["fields"]["host"] == "mh"
