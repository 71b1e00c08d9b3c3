"""Per-layer metrics: which calls are spans, and how each metric is made.

Counts come from the untraced episode (``Simulator.profile()``,
``metrics.snapshot()``, ``RoutingTable.cache_info()`` and the TCP
connections' own counters); ``*_s`` metrics are span self times from the
traced episode; a few counts the program does not keep (UDP datagrams)
are span call counts, recorded at the same boundary as their time.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import repro.api
import repro.testbed.topology
from repro.core.binding_shard import BindingShardPlane
from repro.core.policy import MobilePolicyTable
from repro.core.registration import RegistrationClient
from repro.core.tunnel import VirtualInterface
from repro.experiments import exp_fleet_scale
from repro.faults.auditor import PlaneAuditor
from repro.net.interface import (
    EthernetInterface,
    PointToPointInterface,
    RadioInterface,
)
from repro.net.ip import IPStack
from repro.net.link import EthernetSegment, PointToPointLink, RadioChannel
from repro.net.routing import RoutingTable
from repro.net.tcp import TCPConnection
from repro.net.udp import UDPService
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.trace import Trace
from repro.workloads.aggregate import AggregateHostModel

from spans import Target

#: Every wrapped call: (class or module, attribute, span name).  Several
#: classes share a span name when they implement one layer boundary.
SPAN_TARGETS: List[Target] = [
    (Simulator, "run", "sim.run"),
    (Trace, "emit", "sim.trace_emit"),
    (repro.testbed.topology, "build_testbed", "testbed.build"),
    (repro.api, "build_testbed", "testbed.build"),
    (IPStack, "send", "net.ip.send"),
    (IPStack, "receive_packet", "net.ip.receive"),
    (IPStack, "is_local", "net.ip.is_local"),
    (RoutingTable, "lookup", "net.routing.lookup"),
    (EthernetSegment, "transmit", "net.link.transmit"),
    (PointToPointLink, "transmit", "net.link.transmit"),
    (RadioChannel, "transmit", "net.link.transmit"),
    (EthernetInterface, "deliver_frame", "net.interface.deliver"),
    (RadioInterface, "deliver_from_radio", "net.interface.deliver"),
    (PointToPointInterface, "deliver_from_link", "net.interface.deliver"),
    (UDPService, "send_datagram", "net.udp.send"),
    (TCPConnection, "send", "net.tcp.send"),
    (TCPConnection, "handle_segment", "net.tcp.handle_segment"),
    (VirtualInterface, "send_ip", "core.tunnel.send"),
    (MobilePolicyTable, "lookup", "core.policy.lookup"),
    (RegistrationClient, "register", "core.registration.register"),
    (BindingShardPlane, "serve", "core.binding_shard.serve"),
    (BindingShardPlane, "agent_for", "core.binding_shard.lookup"),
    (BindingShardPlane, "lookup_binding", "core.binding_shard.lookup"),
    (PlaneAuditor, "finish", "faults.auditor.finish"),
    (MetricsRegistry, "snapshot", "obs.snapshot"),
    (AggregateHostModel, "run", "workloads.aggregate.run"),
    (exp_fleet_scale, "run_fleet_scale_trial", "parallel.trial"),
]

#: Per-layer metric -> (unit, span name) for span self times.
SPAN_METRICS: Dict[str, Tuple[str, str]] = {
    "sim.run_self_s": ("span_s", "sim.run"),
    "sim.trace_emit_s": ("span_s", "sim.trace_emit"),
    "testbed.build_s": ("span_s", "testbed.build"),
    "net.ip.send_s": ("span_s", "net.ip.send"),
    "net.ip.receive_s": ("span_s", "net.ip.receive"),
    "net.ip.is_local_s": ("span_s", "net.ip.is_local"),
    "net.routing.lookup_s": ("span_s", "net.routing.lookup"),
    "net.link.transmit_s": ("span_s", "net.link.transmit"),
    "net.interface.deliver_s": ("span_s", "net.interface.deliver"),
    "net.udp.send_s": ("span_s", "net.udp.send"),
    "net.tcp.send_s": ("span_s", "net.tcp.send"),
    "net.tcp.handle_segment_s": ("span_s", "net.tcp.handle_segment"),
    "core.tunnel.send_s": ("span_s", "core.tunnel.send"),
    "core.policy.lookup_s": ("span_s", "core.policy.lookup"),
    "core.registration.register_s": ("span_s", "core.registration.register"),
    "core.binding_shard.serve_s": ("span_s", "core.binding_shard.serve"),
    "core.binding_shard.lookup_s": ("span_s", "core.binding_shard.lookup"),
    "faults.auditor.finish_s": ("span_s", "faults.auditor.finish"),
    "obs.snapshot_s": ("span_s", "obs.snapshot"),
    "workloads.aggregate.run_s": ("span_s", "workloads.aggregate.run"),
}

#: Every other per-layer metric and its unit, in report order.
OTHER_METRICS: Dict[str, str] = {
    "sim.events": "count",
    "sim.ns_per_event": "ns/event",
    "sim.event_pool_hit_ratio": "ratio",
    "sim.arena_reuse_ratio": "reuses/frame",
    "sim.queue_depth_max": "count",
    "sim.trace_records": "count",
    "net.routing.lookups": "count",
    "net.routing.cache_hit_ratio": "ratio",
    "net.link.frames": "count",
    "net.udp.datagrams": "count",
    "net.tcp.segments_sent": "count",
    "net.tcp.retransmit_ratio": "ratio",
    "net.tcp.rto_expirations": "count",
    "net.tcp.persist_probes": "count",
    "net.tcp.delayed_acks": "count",
    "core.tunnel.encapsulated": "count",
    "core.policy.cache_hit_ratio": "ratio",
    "core.handoff.switches": "count",
    "core.handoff.switch_ms": "sim_ms",
    "core.registration.sent": "count",
    "core.registration.accept_ratio": "ratio",
    "core.binding_shard.takeovers": "count",
    "core.binding_shard.stale_served": "count",
    "faults.injected": "count",
    "obs.metric_keys": "count",
    "workloads.aggregate.hosts_per_s": "1/s",
    "parallel.trials": "count",
    "parallel.run_s": "host_s",
    "parallel.overhead_s": "host_s",
    "sim_outage_ms": "sim_ms",
    "sim_goodput_kbps": "kbit/s",
    "sim_latency_samples": "count",
    "bench.trace_overhead_ratio": "ratio",
    "bench.wall_s": "s",
    "bench.ref_s": "s",
}

PER_LAYER: Dict[str, str] = {
    **{name: unit for name, (unit, _) in SPAN_METRICS.items()},
    **OTHER_METRICS,
}


def per_layer_metrics(counts: Dict[str, float],
                      spans: Dict[str, Tuple[int, float, float]]
                      ) -> Dict[str, float]:
    """Every per-layer metric, 0 where the workload bypasses the layer.

    *counts* come from the untraced episode (plus the few the caller
    derives from both episodes); *spans* map span name to (calls, self
    seconds, total seconds) from the traced episode.
    """
    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for metric, (_, span) in SPAN_METRICS.items():
        values[metric] = spans.get(span, (0, 0.0, 0.0))[1]
    values["net.udp.datagrams"] = spans.get("net.udp.send", (0, 0.0, 0.0))[0]
    values.update({name: value for name, value in counts.items()
                   if name in PER_LAYER})
    return values
