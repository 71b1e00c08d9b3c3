"""Reports must be byte-identical with pooling on and off.

The extension experiments (x1-x6) cover every subsystem the fast path
touches — UDP probes, registration storms, sharded fleets, fault
injection, TCP congestion control over handoffs — so running each with
recycling enabled and disabled (the ``set_arena_enabled`` reference
switch, which covers events and packets; several seeds, shrunk
parameterizations) is the end-to-end form of the bench guard's snapshot
identity check.
"""

import pytest

from repro.experiments import (
    run_autoswitch_experiment,
    run_chaos_experiment,
    run_ha_fleet_sweep,
    run_ha_scalability_experiment,
    run_smart_correspondent_experiment,
    run_tcp_cc_experiment,
)
from repro.sim.arena import arena_stats, set_arena_enabled

EXPERIMENTS = [
    ("x1", lambda seed: run_smart_correspondent_experiment(
        probes=4, seed=seed)),
    ("x2", lambda seed: run_ha_scalability_experiment(
        fleet_sizes=(4, 8), seed=seed)),
    ("x3", lambda seed: run_autoswitch_experiment(
        intervals_ms=(300,), seed=seed)),
    ("x4", lambda seed: run_ha_fleet_sweep(
        fleet_sizes=(40,), seed=seed)),
    ("x5", lambda seed: run_chaos_experiment(
        loss_rates=(0.2,), flap_periods_ms=(700,), seed=seed)),
    ("x6", lambda seed: run_tcp_cc_experiment(
        ccs=("tahoe", "reno"), loss_rates=(0.25,), handoffs=(True,),
        seed=seed)),
]


@pytest.mark.parametrize("name,runner", EXPERIMENTS,
                         ids=[name for name, _ in EXPERIMENTS])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_report_identical_with_pooling_on_and_off(name, runner, seed):
    pooled = runner(seed).format_report()
    set_arena_enabled(False)
    try:
        arena_before = arena_stats()
        unpooled = runner(seed).format_report()
        assert arena_stats() == arena_before  # nothing was recycled
    finally:
        set_arena_enabled(True)
    assert pooled == unpooled
