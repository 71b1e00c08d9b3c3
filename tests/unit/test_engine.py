"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.sim import Simulator, ms
from repro.sim.engine import SimulationError


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.call_at(ms(30), lambda: order.append("c"))
    sim.call_at(ms(10), lambda: order.append("a"))
    sim.call_at(ms(20), lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_run_fifo():
    sim = Simulator()
    order = []
    for index in range(10):
        sim.call_at(ms(5), lambda index=index: order.append(index))
    sim.run()
    assert order == list(range(10))


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.call_at(ms(42), lambda: seen.append(sim.now))
    sim.run()
    assert seen == [ms(42)]


def test_call_later_is_relative_to_now():
    sim = Simulator()
    times = []

    def first():
        sim.call_later(ms(5), lambda: times.append(sim.now))

    sim.call_at(ms(10), first)
    sim.run()
    assert times == [ms(15)]


def test_cancelled_events_do_not_run():
    sim = Simulator()
    ran = []
    event = sim.call_at(ms(10), lambda: ran.append(1))
    event.cancel()
    sim.run()
    assert ran == []


def test_run_until_stops_and_tiles():
    sim = Simulator()
    ran = []
    sim.call_at(ms(10), lambda: ran.append("early"))
    sim.call_at(ms(100), lambda: ran.append("late"))
    sim.run(until=ms(50))
    assert ran == ["early"]
    assert sim.now == ms(50)
    sim.run(until=ms(150))
    assert ran == ["early", "late"]


def test_event_exactly_at_until_boundary_runs():
    sim = Simulator()
    ran = []
    sim.call_at(ms(50), lambda: ran.append(1))
    sim.run(until=ms(50))
    assert ran == [1]


def test_run_for_advances_duration():
    sim = Simulator()
    sim.run_for(ms(25))
    sim.run_for(ms(25))
    assert sim.now == ms(50)


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.call_at(ms(10), lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(ms(5), lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-1, lambda: None)


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.call_at(ms(1), reenter)
    sim.run()
    assert len(errors) == 1


def test_max_events_guard_trips_on_runaway():
    sim = Simulator()

    def loop():
        sim.call_later(1, loop)

    sim.call_later(1, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)
    # The guard trips before popping the 101st event: it stays queued and
    # the clock stays at the last event that actually ran.
    assert sim.events_run == 100
    assert sim.now == 100
    assert sim.pending() == 1


def test_max_events_guard_keeps_the_next_event_queued():
    sim = Simulator()
    ran = []
    for index, when in enumerate((10, 20, 30)):
        sim.call_at(when, lambda index=index: ran.append(index))
    with pytest.raises(SimulationError):
        sim.run(max_events=1)
    assert ran == [0]
    assert sim.now == 10
    assert sim.pending() == 2
    sim.run()
    assert ran == [0, 1, 2]
    assert sim.now == 30


def test_max_events_ignores_cancelled_events_past_the_budget():
    sim = Simulator()
    sim.call_at(10, lambda: None)
    sim.call_at(20, lambda: None).cancel()
    sim.run(max_events=1)  # the cancelled event is purged, not counted
    assert sim.events_run == 1
    assert sim.now == 10


def test_pending_counts_live_events():
    sim = Simulator()
    keep = sim.call_at(ms(10), lambda: None)
    gone = sim.call_at(ms(20), lambda: None)
    gone.cancel()
    assert sim.pending() == 1
    assert keep is not None


def test_rng_streams_are_independent_and_deterministic():
    sim1 = Simulator(seed=5)
    sim2 = Simulator(seed=5)
    a1 = [sim1.rng("a").random() for _ in range(5)]
    # Interleave another stream in sim2; stream "a" must not shift.
    rng_a = sim2.rng("a")
    rng_b = sim2.rng("b")
    a2 = []
    for _ in range(5):
        a2.append(rng_a.random())
        rng_b.random()
    assert a1 == a2


def test_rng_streams_differ_by_name_and_seed():
    sim = Simulator(seed=5)
    assert sim.rng("a").random() != sim.rng("b").random()
    other = Simulator(seed=6)
    assert Simulator(seed=5).rng("a").random() != other.rng("a").random()


def test_events_run_counter():
    sim = Simulator()
    for index in range(7):
        sim.call_at(ms(index), lambda: None)
    sim.run()
    assert sim.events_run == 7


def test_max_events_budget_is_per_call():
    """Regression: the budget used to compare against the lifetime total,

    so a simulation that had already run N events would trip
    ``run(max_events=N)`` immediately even if the new call only had a
    handful of events to dispatch.
    """
    sim = Simulator()
    for index in range(50):
        sim.call_at(ms(index), lambda: None)
    sim.run()
    assert sim.events_run == 50
    # A fresh run() gets a fresh budget: 10 events under a 20-event cap
    # must succeed despite the 50 already on the lifetime counter.
    for index in range(10):
        sim.call_at(ms(100 + index), lambda: None)
    sim.run(max_events=20)
    assert sim.events_run == 60


def test_max_events_exact_budget_is_allowed():
    sim = Simulator()
    for index in range(5):
        sim.call_at(ms(index), lambda: None)
    sim.run(max_events=5)  # exactly at the cap: fine
    assert sim.events_run == 5


# ------------------------------------------------------------ queue contract

def test_mixed_times_run_by_time_then_insertion_order():
    sim = Simulator()
    order = []
    for index, when in enumerate((500, 100, 300, 100, 200)):
        sim.post_at(when, lambda index=index: order.append((sim.now, index)))
    sim.run()
    assert order == [(100, 1), (100, 3), (200, 4), (300, 2), (500, 0)]


def test_run_on_empty_queue_returns_immediately():
    sim = Simulator()
    sim.run()
    assert sim.now == 0
    assert sim.events_run == 0
    assert sim.pending() == 0


def test_events_past_until_stay_queued():
    sim = Simulator()
    sim.call_at(10, lambda: None)
    sim.call_at(20, lambda: None)
    sim.run(until=10)
    assert sim.events_run == 1
    assert sim.pending() == 1
    sim.run(until=10)  # nothing new is due
    assert sim.events_run == 1


def test_cancelled_event_sharing_a_timestamp_with_a_live_one():
    sim = Simulator()
    ran = []
    sim.call_at(10, lambda: ran.append("cancelled")).cancel()
    sim.call_at(10, lambda: ran.append("live"))
    sim.post_at(10, lambda: ran.append("posted"))
    assert sim.pending() == 2
    sim.run()
    assert ran == ["live", "posted"]
    assert sim.events_run == 2
    assert sim.pending() == 0


def test_push_at_the_timestamp_just_popped():
    sim = Simulator()
    ran = []

    def first():
        ran.append(("first", sim.now))
        # Same timestamp as the running event: runs in this same pass,
        # after everything already queued for t=100.
        sim.post_at(sim.now, lambda: ran.append(("nested", sim.now)))

    sim.call_at(100, first)
    sim.call_at(100, lambda: ran.append(("second", sim.now)))
    sim.run(until=100)
    assert ran == [("first", 100), ("second", 100), ("nested", 100)]
    # After the run stops at t=100, scheduling at t=100 is still allowed
    # and dispatches on the next run.
    sim.call_at(100, lambda: ran.append(("late", sim.now)))
    sim.run()
    assert ran[-1] == ("late", 100)


def test_randomized_schedule_matches_sorted_reference():
    rng = random.Random(2026)
    for trial in range(10):
        sim = Simulator()
        log = []
        expected = []
        when = 0
        for seq in range(300):
            roll = rng.random()
            if roll < 0.2:
                pass  # tie with the previous event
            elif roll < 0.9:
                when += rng.randrange(1, 200_000)
            else:
                when += rng.randrange(1, 60) * 100_000_000
            at = rng.choice((when, rng.randrange(0, when + 1)))
            cancel = rng.random() < 0.1
            if cancel:
                sim.call_at(at, lambda: log.append("cancelled")).cancel()
            else:
                sim.post_at(at, lambda at=at, seq=seq: log.append((at, seq)))
                expected.append((at, seq))
        sim.run()
        assert log == sorted(expected), f"trial {trial} diverged"
