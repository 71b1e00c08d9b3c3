"""Unit/smoke tests for the repro.bench package."""

import json

from repro.bench.baseline import BaselineSimulator
from repro.bench.engine_bench import _run_workload
from repro.bench.guard import (
    CACHE_METRIC_PREFIX,
    GUARD_CONFIGS,
    canonical_json,
    run_determinism_guard,
    strip_cache_metrics,
)
from repro.sim import Simulator
from repro.sim.arena import arena_enabled, set_arena_enabled


class TestEngineWorkload:
    def test_all_engines_dispatch_identical_event_counts(self):
        set_arena_enabled(False)
        try:
            unpooled = Simulator()
        finally:
            set_arena_enabled(True)
        results = [
            _run_workload(BaselineSimulator(), 3_000),
            _run_workload(Simulator(), 3_000),
            _run_workload(unpooled, 3_000),
        ]
        counts = {r["events_run"] for r in results}
        assert len(counts) == 1
        assert counts.pop() >= 3_000

    def test_workload_reports_sane_figures(self):
        result = _run_workload(Simulator(), 2_000)
        assert result["wall_ns"] > 0
        assert result["ns_per_event"] > 0
        assert result["events_per_sec"] > 0

    def test_baseline_replica_dispatch_counters_match_current(self):
        baseline = BaselineSimulator()
        current = Simulator()
        _run_workload(baseline, 2_000)
        _run_workload(current, 2_000)
        assert baseline.metrics.snapshot() == current.metrics.snapshot()


class TestGuardHelpers:
    def test_strip_cache_metrics_drops_only_diagnostics(self):
        snapshot = {
            f"{CACHE_METRIC_PREFIX}{{host=mh,result=hit}}": 9,
            f"{CACHE_METRIC_PREFIX}{{host=mh,result=miss}}": 2,
            "policy/lookups{host=mh,mode=tunnel,result=hit}": 11,
            "ip/packets_sent{host=mh}": 40,
        }
        stripped = strip_cache_metrics(snapshot)
        assert stripped == {
            "policy/lookups{host=mh,mode=tunnel,result=hit}": 11,
            "ip/packets_sent{host=mh}": 40,
        }

    def test_canonical_json_is_order_insensitive_and_compact(self):
        a = canonical_json({"b": 1, "a": 2})
        b = canonical_json({"a": 2, "b": 1})
        assert a == b == '{"a":2,"b":1}'
        assert json.loads(a) == {"a": 2, "b": 1}


class TestDeterminismGuard:
    def test_guard_passes_on_the_four_config_cube(self):
        doc = run_determinism_guard()
        assert doc["passed"]
        assert [run["config"] for run in doc["runs"]] == [
            name for name, *_ in GUARD_CONFIGS]
        assert len(doc["runs"]) == 4
        assert arena_enabled()  # the guard restores the switch
        for run in doc["runs"]:
            assert run["matches_reference"]
            # "Unpooled" recycles neither events nor packets; "pooled"
            # recycles both, so the pooling axis compares something.
            if run["pooling"]:
                assert run["event_pool_reuses"] > 0
                assert run["arena_reuses"] > 0
            else:
                assert run["event_pool_reuses"] == 0
                assert run["arena_reuses"] == 0
            assert run["switch_complete"]

    def test_half_applied_switch_fails_the_guard(self, monkeypatch):
        # An engine that ignores the switch keeps recycling events in the
        # "unpooled" runs: snapshots still match, but the guard must fail.
        import repro.sim.engine as engine

        monkeypatch.setattr(engine, "arena_enabled", lambda: True)
        doc = run_determinism_guard()
        assert not doc["passed"]
        unpooled = [run for run in doc["runs"] if not run["pooling"]]
        assert unpooled and not any(run["switch_complete"]
                                    for run in unpooled)
        assert all(run["event_pool_reuses"] > 0 for run in unpooled)


class TestAuditedChurnStage:
    def test_quick_stage_gates_and_reports(self):
        from repro.bench.fleet_bench import run_audited_churn_stage

        doc = run_audited_churn_stage(quick=True)
        assert doc["violations"] == 0
        assert doc["rerun_identical"]
        assert doc["faults_injected"] == 4
        assert doc["registrations"] > 0
        assert doc["takeovers"] > 0
