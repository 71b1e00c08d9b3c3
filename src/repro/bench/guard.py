"""Same-seed determinism guard for the fast path.

An optimisation that changes *results* is a bug wearing a speedup's
clothes.  This guard re-runs one seeded scenario under every fast-path
configuration — pooling on and off, the Mobile Policy Table's result
cache on and off — and asserts the metric snapshots serialize
byte-identically once the documented cache-diagnostic counters are
stripped.  Routing tables have no cache to toggle: they answer every
lookup from an exact prefix index.

"Unpooled" is the process-wide reference switch
(:func:`repro.sim.arena.set_arena_enabled`), which covers events and
packets alike.  The guard also checks that the switch is complete: an
unpooled run must recycle no event and no packet, and a pooled run must
recycle both — otherwise the pooling axis compares nothing.

The stripped keys are exactly the ``policy/lookup_cache`` counters: they
exist *because* the cache does, so they legitimately differ when the cache
is disabled.  Everything else — packet counts, handoff latencies, dispatch
totals, queue depths — must not move by a single byte.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.bench.datapath_bench import run_scenario
from repro.sim.arena import arena_enabled, arena_stats, set_arena_enabled

#: Snapshot-key prefix of the cache diagnostics the guard ignores.
CACHE_METRIC_PREFIX = "policy/lookup_cache"

#: (name, policy_cache_size, pooling) per configuration: the
#: pooled/unpooled x policy-cache-on/off cube.
GUARD_CONFIGS = [
    ("pooled-caches", 128, True),
    ("pooled-nocache", 0, True),
    ("unpooled-caches", 128, False),
    ("unpooled-nocache", 0, False),
]


def strip_cache_metrics(snapshot: Dict[str, object]) -> Dict[str, object]:
    """Drop the cache-diagnostic counters from a metrics snapshot."""
    return {key: value for key, value in snapshot.items()
            if not key.startswith(CACHE_METRIC_PREFIX)}


def canonical_json(snapshot: Dict[str, object]) -> str:
    """Byte-stable serialization used for the identity comparison."""
    return json.dumps(snapshot, sort_keys=True, separators=(",", ":"))


def _arena_reuses() -> int:
    return sum(entry["reuses"] for entry in arena_stats().values())


def run_determinism_guard(seed: int = 0) -> Dict[str, object]:
    """Run the scenario under every configuration; returns the verdict doc.

    ``passed`` is True iff every configuration's stripped snapshot is
    byte-identical to the reference (fast path fully on) and every run's
    recycling agrees with its pooling switch.
    """
    runs: List[Dict[str, object]] = []
    reference_json = None
    was_enabled = arena_enabled()
    for name, policy_cache, pooling in GUARD_CONFIGS:
        set_arena_enabled(pooling)
        try:
            arena_before = _arena_reuses()
            sim = run_scenario(seed=seed, policy_cache=policy_cache)
            arena_reuses = _arena_reuses() - arena_before
        finally:
            set_arena_enabled(was_enabled)
        snapshot = strip_cache_metrics(sim.metrics.snapshot())
        blob = canonical_json(snapshot)
        if reference_json is None:
            reference_json = blob
        # profile() materialises the lazy pool counter, so read it only
        # after the snapshot has been taken.
        event_reuses = sim.profile()["event_pool"]["reuses"]
        recycled = (event_reuses > 0, arena_reuses > 0)
        runs.append({
            "config": name,
            "policy_cache_size": policy_cache,
            "pooling": pooling,
            "snapshot_bytes": len(blob),
            "matches_reference": blob == reference_json,
            "events_run": sim.events_run,
            "event_pool_reuses": event_reuses,
            "arena_reuses": arena_reuses,
            "switch_complete": recycled == (pooling, pooling),
        })
    passed = all(run["matches_reference"] and run["switch_complete"]
                 for run in runs)
    return {
        "guard": "same-seed-snapshot-identity",
        "seed": seed,
        "reference_config": GUARD_CONFIGS[0][0],
        "stripped_prefix": CACHE_METRIC_PREFIX,
        "passed": passed,
        "runs": runs,
    }
