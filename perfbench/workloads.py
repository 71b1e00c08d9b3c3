"""The four benchmark workloads, each one seeded, checked episode.

An episode builds its scenario (timed as set-up), runs a fixed amount of
simulated work (timed as the measured phase), then checks the outputs
and summarises them.  The simulated load is open-loop in simulated
time: probes and chunk writes follow a fixed schedule, renewals fire on
their timers, and every op is timed from when it was due.  For a fixed
seed and size every simulated outcome repeats exactly, which the
``digest`` pins.

Every workload drives the stack only through public entry points:
``build_testbed``/``Scenario``, the ``repro.workloads`` classes,
``run_plane_chaos_trial``, the ``exp_fleet_scale`` trial builders and
``repro.parallel``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro.testbed.topology as topology
from repro.api import Scenario
from repro.core.handoff import AddressSwitcher, DeviceSwitcher, SwitchTimeline
from repro.experiments import exp_fleet_scale, exp_plane_chaos
from repro.faults import AuditViolation
from repro.net.addressing import IPAddress
from repro.net.packet import AppData, arena_stats
from repro.net.routing import RoutingTable
from repro.net.tcp import TCPConnection
from repro.obs.capture import capture_simulators
from repro.parallel import run_trials, spawn_seed
from repro.sim.engine import Simulator
from repro.sim.units import ms, s, us
from repro.stats import LatencyHistogram
from repro.workloads import (
    TcpBulkReceiver,
    TcpBulkSender,
    UdpEchoResponder,
    UdpEchoStream,
)


@dataclass
class Episode:
    """What one episode measured, checked and simulated."""

    setup_s: float
    wall_s: float
    attempted: int
    completed: int
    #: Simulated op latency, nanoseconds -> reported in milliseconds.
    p50_ms: float
    p99_ms: float
    samples: int
    #: Ops the modelled network lost where the paper says it loses them:
    #: echo probes sent inside a care-of switch's loss window.  Neither
    #: completed nor failed.
    switch_lost: int = 0
    outage_ms: float = 0.0
    goodput_kbps: float = 0.0
    #: Failed output checks (empty when the episode is correct).
    check_failures: List[str] = field(default_factory=list)
    digest: str = ""
    #: Per-layer counts read after the run (only when asked to collect).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Wall seconds the program's own parallel runner took (fleet only).
    runner_s: float = 0.0

    @property
    def failed(self) -> int:
        return self.attempted - self.completed - self.switch_lost

    def sim_outputs(self) -> Dict[str, float]:
        """The simulated results the digest covers (host times excluded)."""
        return {"attempted": self.attempted, "completed": self.completed,
                "switch_lost": self.switch_lost, "p50_ms": self.p50_ms, "p99_ms": self.p99_ms,
                "samples": self.samples, "outage_ms": self.outage_ms,
                "goodput_kbps": self.goodput_kbps}


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The nearest-rank *q*-quantile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def digest_of(snapshot: Dict[str, object], outputs: Dict[str, float]) -> str:
    """SHA-256 of the final metrics snapshot plus the simulated outputs.

    ``policy/lookup_cache`` counters are cache diagnostics, not simulation
    state (the repo's own determinism guard strips them the same way), so
    a change to caching alone leaves the digest unchanged.
    """
    kept = {key: value for key, value in snapshot.items()
            if not key.startswith("policy/lookup_cache")}
    blob = json.dumps({"snapshot": kept, "outputs": outputs},
                      sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


def _sum_prefix(snapshot: Dict[str, object], prefix: str) -> float:
    """Sum of every numeric snapshot value whose key starts with *prefix*."""
    return sum(value for key, value in snapshot.items()
               if key.startswith(prefix) and isinstance(value, (int, float)))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _arena_reuses() -> int:
    return sum(entry["reuses"] for entry in arena_stats().values())


def _max_gap_across(times: Sequence[int],
                    windows: Sequence[Tuple[int, int]]) -> int:
    """Longest gap between consecutive deliveries that overlaps a window.

    *times* is an ascending list of delivery instants; a gap (a, b)
    counts when it overlaps some switch window [start, end].
    """
    longest = 0
    for earlier, later in zip(times, times[1:]):
        gap = later - earlier
        if gap > longest and any(earlier <= end and later >= start
                                 for start, end in windows):
            longest = gap
    return longest


def _common_counts(sims: List[Simulator], snapshot: Dict[str, object],
                   arena_reuses: int) -> Dict[str, float]:
    """Per-layer counts every event-driven workload reads after its run."""
    events = sum(sim.events_run for sim in sims)
    profiles = [sim.profile() for sim in sims]
    pool_reuses = sum(p["event_pool"]["reuses"] for p in profiles)
    wall_ns = sum(sim.wall_time_ns for sim in sims)
    live = gc.get_objects()
    tables = [obj for obj in live if isinstance(obj, RoutingTable)]
    connections = [obj for obj in live if isinstance(obj, TCPConnection)]
    del live
    hits = sum(table.cache_info()["hits"] for table in tables)
    misses = sum(table.cache_info()["misses"] for table in tables)
    segments = sum(conn.segments_sent for conn in connections)
    resent = sum(conn.segments_retransmitted for conn in connections)
    frames = _sum_prefix(snapshot, "link/tx_frames")
    policy_hits = sum(value for key, value in snapshot.items()
                      if key.startswith("policy/lookup_cache{")
                      and "result=hit" in key)
    policy_total = _sum_prefix(snapshot, "policy/lookup_cache{")
    reg_sent = _sum_prefix(snapshot, "registration/attempts")
    return {
        "sim.events": events,
        "sim.ns_per_event": _ratio(wall_ns, events),
        "sim.event_pool_hit_ratio": _ratio(pool_reuses, events),
        "sim.arena_reuse_ratio": _ratio(arena_reuses, frames),
        "sim.queue_depth_max": max((p["queue_depth_max"] for p in profiles),
                                   default=0),
        "sim.trace_records": sum(len(sim.trace) for sim in sims),
        "net.routing.lookups": hits + misses,
        "net.routing.cache_hit_ratio": _ratio(hits, hits + misses),
        "net.link.frames": frames,
        "net.tcp.segments_sent": segments,
        "net.tcp.retransmit_ratio": _ratio(resent, segments),
        "net.tcp.rto_expirations": _sum_prefix(snapshot,
                                               "tcp/rto_expirations"),
        "net.tcp.persist_probes": _sum_prefix(snapshot, "tcp/persist_probes"),
        "net.tcp.delayed_acks": _sum_prefix(snapshot, "tcp/delayed_acks"),
        "core.tunnel.encapsulated": _sum_prefix(snapshot,
                                                "tunnel/encapsulated"),
        "core.policy.cache_hit_ratio": _ratio(policy_hits, policy_total),
        "core.registration.sent": reg_sent,
        "core.registration.accept_ratio": _ratio(
            _sum_prefix(snapshot, "home_agent/registrations_accepted"),
            reg_sent),
        "core.binding_shard.takeovers": _sum_prefix(
            snapshot, "binding_shard/takeovers"),
        "core.binding_shard.stale_served": _sum_prefix(
            snapshot, "binding_shard/stale_served"),
        "faults.injected": _sum_prefix(snapshot, "faults/injected"),
        "obs.metric_keys": len(snapshot),
    }


def _switch_counts(timelines: List[SwitchTimeline]) -> Dict[str, float]:
    done = [t for t in timelines if t.success]
    return {"core.handoff.switches": len(done),
            "core.handoff.switch_ms": _ratio(
                sum(t.total for t in done) / 1e6, len(done))}


# ------------------------------------------------------------------ roam_udp

class CountingEchoStream(UdpEchoStream):
    """An echo stream that also counts every reply, duplicates included."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.replies: Dict[int, int] = {}
        self.reply_times: List[int] = []

    def _on_reply(self, data: AppData, src: IPAddress, src_port: int,
                  dst: IPAddress) -> None:
        content = data.content
        if isinstance(content, tuple) and len(content) == 2:
            self.replies[content[1]] = self.replies.get(content[1], 0) + 1
            self.reply_times.append(self.sim.now)
        super()._on_reply(data, src, src_port, dst)


@dataclass(frozen=True)
class RoamUdpSize:
    #: Streams from the department correspondent and from the remote one.
    #: Their RTTs form two modes; an uneven split keeps the median inside
    #: one mode instead of on the edge between them.
    local_streams: int = 3
    remote_streams: int = 1
    interval: int = ms(1)
    duration: int = ms(500)
    switch_every: int = ms(100)
    warmup: int = ms(500)
    drain: int = ms(500)


def _build_roam_udp(seed: int, size: RoamUdpSize):
    """Testbed with the MH away on net 36.8, echo streams, switch plan."""
    sim = Simulator(seed=seed)
    testbed = topology.build_testbed(sim)
    testbed.visit_dept()
    UdpEchoResponder(testbed.mobile)
    sim.run_for(size.warmup)  # registration and ARP settle
    streams = [CountingEchoStream(host, testbed.addresses.mh_home,
                                  interval=size.interval)
               for host in ([testbed.correspondent] * size.local_streams
                            + [testbed.remote_correspondent]
                            * size.remote_streams)]
    switcher = AddressSwitcher(testbed.mobile)
    care_ofs = (testbed.addresses.mh_dept_care_of_2,
                testbed.addresses.mh_dept_care_of)
    timelines: List[SwitchTimeline] = []

    def switch() -> None:
        switcher.switch_address(care_ofs[len(timelines) % 2],
                                on_done=timelines.append)

    switch_times = range(size.switch_every // 2, size.duration,
                         size.switch_every)
    for at in switch_times:
        sim.call_at(sim.now + at, switch, label="bench-switch")
    return sim, streams, timelines, len(switch_times)


def roam_udp_setup(seed: int, size: RoamUdpSize) -> float:
    started = perf_counter()
    _build_roam_udp(seed, size)
    return perf_counter() - started


def roam_udp(seed: int, size: RoamUdpSize, collect: bool) -> Episode:
    """Echo streams to the roaming MH while it hops care-of addresses."""
    started = perf_counter()
    sim, streams, timelines, switches = _build_roam_udp(seed, size)
    arena_before = _arena_reuses()
    measured = perf_counter()
    for stream in streams:
        stream.start()
    sim.run_for(size.duration)
    for stream in streams:
        stream.stop()
    sim.run_for(size.drain)  # stragglers
    ended = perf_counter()

    failures = []
    sent = sum(stream.sent for stream in streams)
    answered = sum(stream.received for stream in streams)
    lost = sum(stream.lost_count() for stream in streams)
    if sent != answered + lost:
        failures.append(f"sent {sent} != answered {answered} + lost {lost}")
    duplicated = sum(1 for stream in streams
                     for count in stream.replies.values() if count > 1)
    if duplicated:
        failures.append(f"{duplicated} probes answered more than once")
    if len(timelines) != switches or not all(t.success for t in timelines):
        failures.append("a care-of switch did not complete")
    rtts = sorted(rtt for stream in streams for rtt in stream.rtts())
    windows = [(t.started_at, t.finished_at) for t in timelines]
    # A probe is lost to a switch when it reaches the old care-of address
    # after the cutover and before the home agent's binding flips, so it
    # was sent at most one round trip before the switch began.
    slack = rtts[-1] if rtts else 0
    switch_lost = sum(stream.lost_count(since=start - slack, until=end)
                      for stream in streams for start, end in windows)
    outage = max((_max_gap_across(stream.reply_times, windows)
                  for stream in streams), default=0)
    payload_bits = 8 * sum(stream.payload_bytes * stream.received
                           for stream in streams)
    episode = Episode(
        setup_s=measured - started, wall_s=ended - measured,
        attempted=sent, completed=answered, switch_lost=switch_lost,
        p50_ms=nearest_rank(rtts, 0.50) / 1e6,
        p99_ms=nearest_rank(rtts, 0.99) / 1e6, samples=len(rtts),
        outage_ms=outage / 1e6,
        goodput_kbps=payload_bits / (size.duration / 1e9) / 1e3,
        check_failures=failures)
    snapshot = sim.metrics.snapshot()
    episode.digest = digest_of(snapshot, episode.sim_outputs())
    if collect:
        episode.counts = _common_counts([sim], snapshot,
                                        _arena_reuses() - arena_before)
        episode.counts.update(_switch_counts(timelines))
    return episode


# ------------------------------------------------------------------ tcp_bulk

class TimedBulkReceiver(TcpBulkReceiver):
    """A bulk receiver that timestamps every in-order chunk delivery."""

    def __init__(self, host) -> None:
        super().__init__(host)
        self.times: List[int] = []

    def _on_data(self, data: AppData) -> None:
        super()._on_data(data)
        content = data.content
        if isinstance(content, tuple) and content[0] == "chunk":
            self.times.append(self.host.sim.now)


#: One chunk per write: the TCP MSS, so each write is one full segment.
CHUNK_BYTES = 512


@dataclass(frozen=True)
class TcpBulkSize:
    sessions: int = 2
    interval: int = us(1250)
    write_for: int = ms(2500)
    #: Hot Ethernet->radio, hot radio->Ethernet, cold Ethernet->radio and
    #: cold radio->Ethernet, relative to the first write.
    switch_at: Tuple[int, int, int, int] = (ms(300), ms(800), ms(1200),
                                            ms(1800))
    warmup: int = ms(500)
    drain_step: int = ms(100)
    drain_limit: int = s(30)


def _build_tcp_bulk(seed: int, size: TcpBulkSize):
    """Testbed, established Reno+SACK session, hot radio, switch plan."""
    session: Dict[str, object] = {}

    def start_session(testbed) -> None:
        testbed.visit_dept()
        testbed.connect_radio(register=False)  # hot standby
        session["receiver"] = TimedBulkReceiver(testbed.mobile)

    result = (Scenario(seed=seed)
              .with_config(tcp_congestion_control="reno", tcp_sack=True,
                           tcp_flow_control=True, tcp_delayed_ack=True)
              .with_testbed(with_remote_correspondent=False)
              .with_workload(start_session)
              .run(duration=size.warmup))  # the MH's registration settles
    sim, testbed = result.sim, result.testbed
    # Connect only once the binding exists, so the handshake is not lost
    # to the registration race and writing starts on an open session.
    sender = TcpBulkSender(testbed.correspondent, testbed.addresses.mh_home,
                           interval=size.interval, chunk_bytes=CHUNK_BYTES)
    sim.run_for(size.warmup)
    a = testbed.addresses
    switcher = DeviceSwitcher(testbed.mobile)
    timelines: List[SwitchTimeline] = []
    to_radio = (testbed.mh_radio, a.mh_radio, a.radio_net, a.router_radio)
    to_eth = (testbed.mh_eth, a.mh_dept_care_of, a.dept_net, a.router_dept)
    actions: List[Callable[[], None]] = [
        lambda: switcher.hot_switch(*to_radio, on_done=timelines.append),
        lambda: switcher.hot_switch(*to_eth, on_done=timelines.append),
        lambda: switcher.cold_switch(testbed.mh_eth, *to_radio,
                                     on_done=timelines.append),
        lambda: switcher.cold_switch(testbed.mh_radio, *to_eth,
                                     on_done=timelines.append),
    ]
    for at, action in zip(size.switch_at, actions):
        sim.call_at(sim.now + at, action, label="bench-switch")
    return sim, session["receiver"], sender, timelines, len(actions)


def _tcp_sessions(seed: int, size: TcpBulkSize) -> list:
    """The episode's independent sessions, seeded from *seed* by index."""
    return [_build_tcp_bulk(spawn_seed(seed, index), size)
            for index in range(size.sessions)]


def tcp_bulk_setup(seed: int, size: TcpBulkSize) -> float:
    started = perf_counter()
    _tcp_sessions(seed, size)
    return perf_counter() - started


def tcp_bulk(seed: int, size: TcpBulkSize, collect: bool) -> Episode:
    """Bulk TCP writers to the MH across hot and cold device switches.

    An episode runs ``size.sessions`` sessions with independent seeds and
    pools their samples.  After each radio period TCP stalls until its
    backed-off retransmission timer fires, so latency is dominated by the
    backlog that stall leaves.
    """
    started = perf_counter()
    sessions = _tcp_sessions(seed, size)
    arena_before = _arena_reuses()
    measured = perf_counter()
    starts = []
    for sim, receiver, sender, _, _ in sessions:
        starts.append(sim.now)
        sender.start()
        sim.run_for(size.write_for)
        sender.stop()
        drain_start = sim.now
        while (len(receiver.received_chunks) < sender.sent_chunks
               and sim.now - drain_start < size.drain_limit):
            sim.run_for(size.drain_step)
    ended = perf_counter()

    failures = []
    latencies: List[int] = []
    outage = 0
    bits = 0.0
    span_s = 0.0
    for start, (sim, receiver, sender, timelines, switches) in zip(starts,
                                                                 sessions):
        delivered = receiver.received_chunks
        if delivered != list(range(len(delivered))):
            failures.append("chunks arrived out of order or more than once")
        if sender.reset or not sender.established:
            failures.append("the connection was reset or never opened")
        if len(timelines) != switches or not all(t.success
                                                 for t in timelines):
            failures.append("a device switch did not complete")
        # Chunk i was due at start + i * interval (the writer's cadence).
        latencies += [at - (start + chunk * size.interval)
                      for chunk, at in zip(delivered, receiver.times)]
        windows = [(t.started_at, t.finished_at) for t in timelines]
        outage = max(outage, _max_gap_across(receiver.times, windows))
        bits += 8 * CHUNK_BYTES * len(delivered)
        if receiver.times:
            span_s += (receiver.times[-1] - start) / 1e9
    latencies.sort()
    episode = Episode(
        setup_s=measured - started, wall_s=ended - measured,
        attempted=sum(sender.sent_chunks for _, _, sender, _, _ in sessions),
        completed=sum(len(receiver.received_chunks)
                      for _, receiver, _, _, _ in sessions),
        p50_ms=nearest_rank(latencies, 0.50) / 1e6,
        p99_ms=nearest_rank(latencies, 0.99) / 1e6, samples=len(latencies),
        outage_ms=outage / 1e6, goodput_kbps=_ratio(bits, span_s) / 1e3,
        check_failures=failures)
    snapshots = [sim.metrics.snapshot() for sim, _, _, _, _ in sessions]
    episode.digest = digest_of({str(index): snapshot for index, snapshot
                                in enumerate(snapshots)},
                               episode.sim_outputs())
    if collect:
        merged: Dict[str, object] = {}
        for snapshot in snapshots:
            for key, value in snapshot.items():
                if isinstance(value, (int, float)):
                    merged[key] = merged.get(key, 0) + value
        episode.counts = _common_counts(
            [session[0] for session in sessions], merged,
            _arena_reuses() - arena_before)
        episode.counts["obs.metric_keys"] = len(snapshots[0])
        episode.counts.update(_switch_counts(
            [t for session in sessions for t in session[3]]))
    return episode


# --------------------------------------------------------------- plane_churn

@dataclass(frozen=True)
class PlaneChurnSize:
    hosts: int = 300


class _FirstRun:
    """Notes the host time of a simulator's first ``run`` call.

    ``run_plane_chaos_trial`` builds its shard and starts the simulator
    in one call; the first ``Simulator.run`` marks where set-up ends.  With
    ``abort`` set it stops the trial right there (a set-up-only probe).
    """

    class Reached(Exception):
        pass

    def __init__(self, abort: bool = False) -> None:
        self.abort = abort
        self.at: Optional[float] = None
        self._original = Simulator.__dict__["run"]

    def __enter__(self) -> "_FirstRun":
        original = self._original

        def run(sim, *args, **kwargs):
            if self.at is None:
                self.at = perf_counter()
                if self.abort:
                    raise _FirstRun.Reached()
            return original(sim, *args, **kwargs)

        Simulator.run = run
        return self

    def __exit__(self, *exc) -> bool:
        Simulator.run = self._original
        return bool(exc[0] is _FirstRun.Reached)


def _plane_trial(seed: int, size: PlaneChurnSize) -> dict:
    return exp_plane_chaos.run_plane_chaos_trial(
        fleet_size=size.hosts, n_hosts=size.hosts, host_offset=0,
        churn=True, partition=True, seed=seed)


def plane_churn_setup(seed: int, size: PlaneChurnSize) -> float:
    """Set-up-only probe: builds the shard and stops at its first run."""
    started = perf_counter()
    with _FirstRun(abort=True) as first:
        _plane_trial(seed, size)
    return first.at - started


def plane_churn(seed: int, size: PlaneChurnSize, collect: bool) -> Episode:
    """One audited x8 chaos shard: join, drain, partition and crash."""
    failures = []
    arena_before = _arena_reuses()
    started = perf_counter()
    with capture_simulators() as sims, _FirstRun() as first:
        try:
            result = _plane_trial(seed, size)
        except AuditViolation as violation:
            result = None
            failures.append(f"audit: {violation.violations}")
    ended = perf_counter()
    sim = sims[0]
    if result is None:
        return Episode(setup_s=first.at - started, wall_s=ended - first.at,
                       attempted=1, completed=0, p50_ms=0.0, p99_ms=0.0,
                       samples=0, check_failures=failures)
    if result["violations"]:
        failures.append(f"{result['violations']} audit violations")
    histogram = LatencyHistogram.from_counts(result["latency_hist"])
    # An op is one registration round: a request and the client's own
    # retransmissions of it.  A round fails when it is rejected, given up
    # or finds no live owner; the trial counts each such round as a
    # storm retry before backing off and trying again.
    accepted = result["accepted"]
    attempted = accepted + result["storm_retries"]
    if accepted > result["attempts"]:
        failures.append(f"accepted {accepted} > requests sent "
                        f"{result['attempts']}")
    episode = Episode(
        setup_s=first.at - started, wall_s=ended - first.at,
        attempted=attempted, completed=accepted,
        p50_ms=histogram.quantile(0.50), p99_ms=histogram.quantile(0.99),
        samples=histogram.total, check_failures=failures)
    snapshot = sim.metrics.snapshot()
    episode.digest = digest_of(snapshot, episode.sim_outputs())
    if collect:
        episode.counts = _common_counts([sim], snapshot,
                                        _arena_reuses() - arena_before)
    return episode


# ----------------------------------------------------------- fleet_aggregate

@dataclass(frozen=True)
class FleetSize:
    hosts: int = 1_000_000
    shard_hosts: int = exp_fleet_scale.AGGREGATE_SHARD_HOSTS


def fleet_jobs() -> int:
    """Worker processes for the fleet: one per CPU (``nproc``)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)


def _fleet_trials(seed: int, size: FleetSize):
    return exp_fleet_scale.build_fleet_scale_trials(
        (size.hosts,), seed, exp_fleet_scale.DEFAULT_CONFIG,
        shard_hosts=size.shard_hosts, failover_fleet=None)


def fleet_setup(seed: int, size: FleetSize) -> float:
    started = perf_counter()
    _fleet_trials(seed, size)
    return perf_counter() - started


def fleet_aggregate(seed: int, size: FleetSize, collect: bool,
                    jobs: Optional[int] = None) -> Episode:
    """The x7 aggregate model at 10^6 hosts, shards run by repro.parallel."""
    jobs = fleet_jobs() if jobs is None else jobs
    started = perf_counter()
    trials = _fleet_trials(seed, size)
    measured = perf_counter()
    results = run_trials(trials, jobs=jobs)
    ran = perf_counter()
    report = exp_fleet_scale.merge_fleet_scale_trials(
        results, (size.hosts,), shard_hosts=size.shard_hosts,
        failover_fleet=None)
    ended = perf_counter()
    point = report.points[0]
    histogram = LatencyHistogram()
    for result in results:
        histogram.merge(LatencyHistogram.from_counts(result["latency_hist"]))
    failures = []
    hosts = sum(result["hosts"] for result in results)
    if hosts != size.hosts:
        failures.append(f"shards model {hosts} hosts, not {size.hosts}")
    horizon_s = exp_fleet_scale.HORIZON / 1e9
    episode = Episode(
        setup_s=measured - started, wall_s=ended - measured,
        attempted=point.registrations, completed=point.registrations,
        p50_ms=histogram.quantile(0.50), p99_ms=point.p99_ms,
        samples=histogram.total,
        goodput_kbps=8 * point.tunnel_mbytes * 1e6 / horizon_s / 1e3,
        check_failures=failures, runner_s=ran - measured)
    # The shards' simulators live in the workers; their plain-data
    # partials (which fully determine the report) stand in for the
    # snapshot, and the rendered report is hashed alongside.
    episode.digest = digest_of(
        {"partials": results, "report": report.format_report()},
        episode.sim_outputs())
    if collect:
        episode.counts = {"parallel.trials": len(trials)}
    return episode
