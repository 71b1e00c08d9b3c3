"""Plane membership churn, partitions, bounded staleness, the auditor.

These drive the *real* x8 shard topology (real home-agent replicas, a
router hub, live :class:`RegistrationClient` traffic) at tiny scale, so
every behaviour tested here is the one the chaos experiment gates on.
"""

from dataclasses import replace

import pytest

from repro.core.binding_shard import BindingShardPlane
from repro.experiments.exp_plane_chaos import (
    _build_shard,
    home_address_of,
    plane_chaos_config,
    run_plane_chaos_trial,
)
from repro.faults import (
    AuditViolation,
    FaultInjector,
    FaultPlan,
    PlaneAuditor,
    PlanePartition,
    ReplicaDrain,
    ReplicaJoin,
)
from repro.sim import Simulator, ms, s

CONFIG = plane_chaos_config()


def build_shard(n_hosts=6, seed=42, config=CONFIG):
    sim = Simulator(seed=seed)
    plane, registrants, stats = _build_shard(sim, config, n_hosts, 0)
    return sim, plane, registrants, stats


def start_traffic(sim, registrants, warmup=s(4)):
    """Begin renewals and run until every host has registered once."""
    for registrant in registrants:
        registrant.start()
    sim.run_for(warmup)


def live_holders(plane, home):
    """Members holding a live binding for *home* right now."""
    return sorted(name for name, agent in plane.agents.items()
                  if agent.bindings.get(home) is not None)


class TestMembership:
    def test_add_replica_promotes_the_spare(self):
        sim, plane, _, _ = build_shard()
        assert "ha4" in plane.spares
        joined = plane.add_replica("ha4")
        assert plane.agents["ha4"] is joined
        assert "ha4" not in plane.spares
        assert "ha4" in plane.ring.nodes

    def test_add_replica_rejects_members_and_strangers(self):
        sim, plane, _, _ = build_shard()
        with pytest.raises(ValueError, match="already has agent"):
            plane.add_replica("ha0")
        with pytest.raises(ValueError, match="no spare"):
            plane.add_replica("ha9")

    def test_drain_hands_over_every_live_binding(self):
        sim, plane, registrants, _ = build_shard(n_hosts=8)
        start_traffic(sim, registrants)
        held = [home_address_of(g) for g in range(8)
                if plane.agents["ha0"].bindings.get(home_address_of(g))
                is not None]
        assert held, "warmup must land some bindings on ha0"
        moved = plane.drain_replica("ha0")
        assert moved == len(held)
        assert "ha0" in plane.spares and "ha0" not in plane.agents
        for home in held:
            # Adopted at a reachable replica: still answerable, zero gap.
            care_of, source = plane.lookup_binding(home)
            assert source == "authoritative"

    def test_drain_rejects_unknown_and_last_replica(self):
        sim, plane, _, _ = build_shard()
        with pytest.raises(ValueError, match="no agent"):
            plane.drain_replica("ha9")
        for name in ("ha0", "ha1", "ha2"):
            plane.drain_replica(name)
        with pytest.raises(ValueError, match="last replica"):
            plane.drain_replica("ha3")

    def test_drained_replica_can_rejoin(self):
        sim, plane, _, _ = build_shard()
        plane.drain_replica("ha1")
        rejoined = plane.add_replica("ha1")
        assert plane.agents["ha1"] is rejoined


class TestPartition:
    def test_partition_is_unreachable_but_keeps_state(self):
        sim, plane, registrants, _ = build_shard(n_hosts=8)
        start_traffic(sim, registrants)
        victim = next(name for name in plane.agents
                      if plane.agents[name].bindings.all_active())
        survivors = len(plane.agents[victim].bindings.all_active())
        plane.partition((victim,), s(2))
        assert not plane.reachable(victim)
        assert plane.partitioned_agents() == [victim]
        assert not plane.agents[victim].is_down
        # The nasty part: the partitioned replica's bindings survive.
        assert len(plane.agents[victim].bindings.all_active()) == survivors
        sim.run_for(s(3))
        assert plane.reachable(victim)

    def test_heal_reconciles_stale_copies_newest_wins(self):
        sim, plane, registrants, _ = build_shard(n_hosts=8)
        auditor = PlaneAuditor(plane)
        auditor.attach()
        start_traffic(sim, registrants)
        bound = [home_address_of(g) for g in range(8)]
        victim = plane.owners(bound[0])[0]
        plane.partition((victim,), s(4))
        # Renewals re-win the victim's addresses elsewhere while it is
        # away; at heal its stale copies must be flushed, never revived.
        sim.run_for(s(8))
        for home in bound:
            assert len(live_holders(plane, home)) <= 1
        assert auditor.finish(raise_on_violation=True) == []

    def test_partition_faults_inject_through_the_plan(self):
        sim, plane, registrants, _ = build_shard(n_hosts=4)
        plan = FaultPlan.of(
            PlanePartition(at=s(1), duration=s(2), agents=("ha1", "ha3")))
        injector = FaultInjector.for_plane(plane, plan)
        injector.arm()
        start_traffic(sim, registrants, warmup=s(2))
        assert plane.partitioned_agents() == ["ha1", "ha3"]
        sim.run_for(s(2))
        assert plane.partitioned_agents() == []
        assert injector.injected == {"plane_partition": 1}

    def test_membership_plan_validation_names_replicas_and_spares(self):
        sim, plane, _, _ = build_shard()
        for plan in (FaultPlan.of(ReplicaJoin(at=s(1), agent="ha9")),
                     FaultPlan.of(ReplicaDrain(at=s(1), agent="ha9")),
                     FaultPlan.of(PlanePartition(at=s(1), duration=s(1),
                                                 agents=("ha0", "ha9")))):
            injector = FaultInjector.for_plane(plane, plan)
            with pytest.raises(ValueError) as err:
                injector.arm()
            message = str(err.value)
            assert "unknown agent 'ha9'" in message
            assert "ha0" in message and "ha4" in message  # members + spares


class TestBoundedStaleness:
    def all_partitioned(self, plane, duration=s(60)):
        plane.partition(tuple(sorted(plane.agents)), duration)

    def test_stale_serve_answers_from_the_replicated_copy(self):
        sim, plane, registrants, _ = build_shard(n_hosts=2)
        start_traffic(sim, registrants)
        home = home_address_of(0)
        assert plane.lookup_binding(home)[1] == "authoritative"
        self.all_partitioned(plane)
        care_of, source = plane.lookup_binding(home)
        assert source == "stale"
        assert plane.stale_served == 1

    def test_staleness_is_capped(self):
        sim, plane, registrants, _ = build_shard(n_hosts=2)
        start_traffic(sim, registrants)
        self.all_partitioned(plane, duration=s(600))
        home = home_address_of(0)
        assert plane.lookup_binding(home)[1] == "stale"
        sim.run_for(CONFIG.fleet.stale_serve_cap + s(1))
        assert plane.lookup_binding(home) is None

    def test_stale_serve_is_opt_in(self):
        config = replace(CONFIG, fleet=replace(CONFIG.fleet,
                                               stale_serve=False))
        sim, plane, registrants, _ = build_shard(n_hosts=2, config=config)
        start_traffic(sim, registrants)
        self.all_partitioned(plane)
        assert plane.lookup_binding(home_address_of(0)) is None
        assert plane.stale_served == 0


class TestTakeoverAccounting:
    def test_repeated_lookups_count_one_takeover(self):
        sim, plane, _, _ = build_shard()
        home = home_address_of(0)
        primary = plane.owners(home)[0]
        plane.crash(primary, down_for=s(2))
        for _ in range(5):
            plane.agent_for(home)
        assert plane.takeovers == 1
        sim.run_for(s(3))
        assert plane.agent_for(home) is plane.agents[primary]
        plane.crash(primary, down_for=s(2))
        plane.agent_for(home)
        assert plane.takeovers == 2

    def test_fault_free_run_creates_no_takeover_metrics(self):
        sim, plane, registrants, _ = build_shard(n_hosts=4)
        start_traffic(sim, registrants, warmup=s(6))
        assert plane.takeovers == 0
        assert not any("takeover" in key
                       for key in sim.metrics.snapshot())


class TestPlaneAuditor:
    def test_clean_chaos_cell_passes_the_audit(self):
        result = run_plane_chaos_trial(fleet_size=24, n_hosts=24,
                                       host_offset=0, churn=True,
                                       partition=True, seed=7)
        assert result["violations"] == 0
        assert result["accepted"] > 0
        assert result["faults_injected"] == 4

    def test_broken_takeover_is_caught(self, monkeypatch):
        sim, plane, registrants, _ = build_shard(n_hosts=4)
        auditor = PlaneAuditor(plane)
        auditor.attach()
        start_traffic(sim, registrants)

        def broken_agent_for(self, home_address):
            # The bug under test: fail over although the primary is
            # perfectly reachable.
            names = self.owners(home_address)
            primary, backup = names[0], names[1]
            key = str(home_address)
            if self._takeover_from.get(key) != backup:
                self._takeover_from[key] = backup
                self._count_takeover(primary, backup)
            return self.agents[backup]

        monkeypatch.setattr(BindingShardPlane, "agent_for", broken_agent_for)
        plane.agent_for(home_address_of(0))
        with pytest.raises(AuditViolation, match="live and\\s+reachable"):
            auditor.finish()

    def test_double_ownership_is_caught(self):
        sim, plane, _, _ = build_shard()
        auditor = PlaneAuditor(plane)
        auditor.attach()
        home = str(home_address_of(0))
        sim.trace.emit("binding", "registered", agent="ha0",
                       home_address=home, care_of="36.192.0.2")
        sim.trace.emit("binding", "registered", agent="ha1",
                       home_address=home, care_of="36.192.0.6")
        with pytest.raises(AuditViolation, match="double-owned"):
            auditor.finish()

    def test_unconverged_binding_is_caught(self):
        sim, plane, _, _ = build_shard()
        auditor = PlaneAuditor(plane)
        auditor.attach()
        home = home_address_of(0)
        holder = plane.owners(home)[0]
        sim.trace.emit("binding", "registered", agent=holder,
                       home_address=str(home), care_of="36.192.0.2")
        plane.crash(holder, down_for=s(1))
        # Nobody re-wins the binding: the deadline must fire at finish.
        sim.run_for(CONFIG.fleet.convergence_deadline + s(1))
        with pytest.raises(AuditViolation, match="not re-won"):
            auditor.finish()
        assert auditor.finish(raise_on_violation=False)

    def test_disabled_categories_cannot_blind_the_audit(self):
        sim, plane, _, _ = build_shard()
        sim.trace.disable("binding", "binding_shard", "home_agent")
        auditor = PlaneAuditor(plane)
        auditor.attach()
        home = str(home_address_of(0))
        sim.trace.emit("binding", "registered", agent="ha0",
                       home_address=home, care_of="36.192.0.2")
        sim.trace.emit("binding", "registered", agent="ha1",
                       home_address=home, care_of="36.192.0.6")
        with pytest.raises(AuditViolation, match="double-owned"):
            auditor.finish()

    def test_attach_refuses_a_switched_off_trace(self):
        sim, plane, _, _ = build_shard()
        sim.trace.enabled = False
        auditor = PlaneAuditor(plane)
        with pytest.raises(RuntimeError, match="trace.enabled is False"):
            auditor.attach()

    def test_takeover_counter_mismatch_is_caught(self):
        sim, plane, _, _ = build_shard()
        auditor = PlaneAuditor(plane)
        auditor.attach()
        plane.takeovers += 1  # counted but never traced
        with pytest.raises(AuditViolation, match="takeover counter"):
            auditor.finish()

    def test_detach_freezes_the_view(self):
        sim, plane, _, _ = build_shard()
        auditor = PlaneAuditor(plane)
        auditor.attach()
        auditor.detach()
        home = str(home_address_of(0))
        sim.trace.emit("binding", "registered", agent="ha0",
                       home_address=home, care_of="36.192.0.2")
        sim.trace.emit("binding", "registered", agent="ha1",
                       home_address=home, care_of="36.192.0.6")
        assert auditor.finish(raise_on_violation=False) == []
