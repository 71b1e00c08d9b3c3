"""End-to-end benchmark of the MosquitoNet mobility stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload roam_udp --seed 1 --seconds 25 --trace 0

Workloads: ``roam_udp``, ``tcp_bulk``, ``plane_churn``, ``fleet_aggregate``
(see ``perfbench/README.md`` for what each stresses and why).

``--trace 0`` runs whole episodes of the workload until ``--seconds`` have
passed, each bracketed by samples of a fixed reference task
(``reference.py``) and followed by set-up-only probes, and prints every
end-to-end metric: host costs in units of the reference task's time and
set-up time in seconds, as medians over the episodes and probes.
``--trace 1`` runs one untraced
episode for the per-layer counts and one traced episode for the span self
times, and prints every per-layer metric.  Either way every episode's
outputs are checked, and every episode of one seed must produce the same
simulated results and digest.

Standard output: a human-readable report, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: End-to-end metrics (reported with ``--trace 0``) and their units.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "wall_ref": "ref",
    "ops_per_ref": "1/ref",
    "sim_delivery_ratio": "ratio",
    "sim_latency_p50_ms": "sim_ms",
    "sim_latency_p99_ms": "sim_ms",
    "peak_rss_mb": "MB",
}

#: Set-up-only probes after every episode, on top of the episode's own
#: set-up: at least one, and more until this much host time is spent, so
#: a set-up of well under a millisecond still gets a steady median and
#: the probes sample the same stretch of host time as the episodes.
SETUP_PROBE_SECONDS = 0.05


class Workload(NamedTuple):
    episode: Callable  # (seed, size, collect) -> Episode
    setup: Callable    # (seed, size) -> set-up seconds
    size: object       # full-size parameters
    small: object      # smallest size, for the self-test


def workloads() -> Dict[str, Workload]:
    import workloads as w
    from repro.sim.units import ms, s

    return {
        "roam_udp": Workload(
            w.roam_udp, w.roam_udp_setup, w.RoamUdpSize(),
            w.RoamUdpSize(duration=ms(200), switch_every=ms(50),
                          drain=ms(100))),
        "tcp_bulk": Workload(
            w.tcp_bulk, w.tcp_bulk_setup, w.TcpBulkSize(),
            w.TcpBulkSize(write_for=ms(800), drain_limit=s(10))),
        "plane_churn": Workload(
            w.plane_churn, w.plane_churn_setup, w.PlaneChurnSize(),
            w.PlaneChurnSize(hosts=24)),
        "fleet_aggregate": Workload(
            w.fleet_aggregate, w.fleet_setup, w.FleetSize(),
            w.FleetSize(hosts=20_000, shard_hosts=5_000)),
    }


def worker_processes(name: str) -> int:
    """Processes a workload's measured phase runs on at once."""
    import workloads as w

    return w.fleet_jobs() if name == "fleet_aggregate" else 1


def serial_kwargs(name: str) -> dict:
    """Episode arguments that run a workload in this process alone."""
    return {"jobs": 1} if name == "fleet_aggregate" else {}


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest worker, in MB."""
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return usage / 1024.0


def fresh_episode(run: Callable, *args, **kwargs):
    """Run one episode from a collected heap, so each starts alike."""
    gc.collect()
    return run(*args, **kwargs)


def compare(reference, episode, label: str) -> List[str]:
    """Check that *episode* simulated exactly what *reference* did."""
    if episode.digest != reference.digest:
        return [f"{label}: digest {episode.digest[:16]} differs from "
                f"{reference.digest[:16]}"]
    if episode.sim_outputs() != reference.sim_outputs():
        return [f"{label}: simulated outputs differ"]
    return []


def measure(name: str, seed: int, seconds: float, small: bool) -> dict:
    """The ``--trace 0`` run: end-to-end metrics from untraced episodes."""
    from reference import Yardstick

    workload = workloads()[name]
    size = workload.small if small else workload.size
    setups: List[float] = []
    episodes = []
    # Each episode's host time in ``ref`` units: divided by the mean of
    # the reference task's time just before and just after it.
    costs: List[float] = []
    with Yardstick(worker_processes(name)) as yardstick:
        # A first, unmeasured (but checked) episode sizes the first
        # reference sample and warms the interpreter's caches.  The fleet
        # runs it with jobs=1: its report must match the parallel ones.
        warmup = fresh_episode(workload.episode, seed, size, False,
                               **serial_kwargs(name))
        before = yardstick.sample(warmup.wall_s)
        deadline = perf_counter() + seconds
        while not episodes or perf_counter() < deadline:
            episode = fresh_episode(workload.episode, seed, size, False)
            after = yardstick.sample(episode.wall_s)
            episodes.append(episode)
            costs.append(episode.wall_s / ((before + after) / 2))
            before = after
            probe_until = perf_counter() + SETUP_PROBE_SECONDS
            setups.append(fresh_episode(workload.setup, seed, size))
            while perf_counter() < probe_until:
                setups.append(workload.setup(seed, size))
    rss = peak_rss_mb()
    first = episodes[0]
    failures = [failure for episode in [warmup] + episodes
                for failure in episode.check_failures]
    failures += compare(first, warmup, "warm-up episode")
    for index, episode in enumerate(episodes[1:], start=1):
        failures += compare(first, episode, f"episode {index}")
    metrics = {
        "setup_s": statistics.median(
            setups + [episode.setup_s for episode in episodes]),
        "wall_ref": statistics.median(costs),
        "ops_per_ref": statistics.median(
            episode.completed / cost
            for episode, cost in zip(episodes, costs)),
        "sim_delivery_ratio": first.completed / first.attempted,
        "sim_latency_p50_ms": first.p50_ms,
        "sim_latency_p99_ms": first.p99_ms,
        "peak_rss_mb": rss,
    }
    walls = [episode.wall_s for episode in episodes]
    print(f"workload {name} seed {seed}: {len(episodes)} episodes, "
          f"host walls {[round(wall, 3) for wall in walls]}")
    print(f"  median host wall {statistics.median(walls):.4f} s, "
          f"reference task {before * 1e3:.2f} ms at the end, "
          f"costs {[round(cost, 2) for cost in costs]} ref")
    print(f"  attempted {first.attempted} completed {first.completed} "
          f"lost in switches {first.switch_lost} failed {first.failed} "
          f"latency samples {first.samples} "
          f"sim_outage_ms {first.outage_ms:.3f} "
          f"sim_goodput_kbps {first.goodput_kbps:.3f}")
    print(f"  digest {first.digest}")
    # Every episode replays the seed's ops exactly (the digests match), so
    # the run attempted the ops of one episode, however many it ran.
    return {"metrics": metrics, "units": END_TO_END, "failures": failures,
            "attempted": first.attempted, "failed": first.failed}


def trace(name: str, seed: int, small: bool) -> dict:
    """The ``--trace 1`` run: per-layer metrics from two episodes."""
    import layers
    import workloads as w
    from reference import Yardstick
    from spans import SpanTracer

    workload = workloads()[name]
    size = workload.small if small else workload.size
    plain = fresh_episode(workload.episode, seed, size, True)
    # The traced fleet episode runs its trials serially, so every shard's
    # spans are recorded in this process; its overhead is then measured
    # against an untraced serial episode.
    kwargs = serial_kwargs(name)
    baseline = (fresh_episode(workload.episode, seed, size, False, **kwargs)
                if kwargs else plain)
    tracer = SpanTracer()
    tracer.install(layers.SPAN_TARGETS)
    try:
        traced = fresh_episode(workload.episode, seed, size, False, **kwargs)
    finally:
        tracer.uninstall()
    failures = plain.check_failures + traced.check_failures
    failures += compare(plain, baseline, "serial episode")
    failures += compare(plain, traced, "traced episode")
    spans = tracer.self_times()
    counts = dict(plain.counts)
    counts["sim_outage_ms"] = plain.outage_ms
    counts["sim_goodput_kbps"] = plain.goodput_kbps
    counts["sim_latency_samples"] = plain.samples
    counts["bench.trace_overhead_ratio"] = traced.wall_s / baseline.wall_s
    counts["bench.wall_s"] = plain.wall_s
    with Yardstick(worker_processes(name)) as yardstick:
        counts["bench.ref_s"] = yardstick.sample()
    if name == "fleet_aggregate":
        model_s = spans.get("workloads.aggregate.run", (0, 0.0, 0.0))[1]
        trial_s = spans.get("parallel.trial", (0, 0.0, 0.0))[2]
        workers = min(w.fleet_jobs(), counts["parallel.trials"])
        counts["workloads.aggregate.hosts_per_s"] = (
            size.hosts / model_s if model_s else 0.0)
        counts["parallel.run_s"] = plain.runner_s
        counts["parallel.overhead_s"] = plain.runner_s - trial_s / workers
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{name}.bin"))
    print(f"workload {name} seed {seed}: traced {len(tracer)} spans, "
          f"untraced wall {baseline.wall_s:.3f} s, "
          f"traced {traced.wall_s:.3f} s")
    for span, (calls, self_s, total_s) in sorted(spans.items()):
        print(f"  span {span:32s} calls {calls:9d} self {self_s:9.4f} s "
              f"total {total_s:9.4f} s")
    return {"metrics": layers.per_layer_metrics(counts, spans),
            "units": layers.PER_LAYER, "failures": failures,
            "attempted": plain.attempted, "failed": plain.failed}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["roam_udp", "tcp_bulk", "plane_churn",
                                 "fleet_aggregate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest size (the self-test uses it)")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as exc:
        print(f"cannot import the program from {ROOT}/src: {exc}",
              file=sys.stderr)
        return 2

    if args.trace:
        outcome = trace(args.workload, args.seed, args.small)
    else:
        outcome = measure(args.workload, args.seed, args.seconds, args.small)
    for failure in outcome["failures"]:
        print(f"CHECK FAILED: {failure}")
    correct = not outcome["failures"]
    failed = outcome["failed"] if correct else outcome["attempted"]
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": {name: {"value": outcome["metrics"][name], "unit": unit}
                    for name, unit in outcome["units"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
